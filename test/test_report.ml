let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Table                                                              *)

let test_table_render () =
  let s =
    Report.Table.render ~headers:[ "name"; "count" ]
      ~rows:[ [ "alpha"; "3" ]; [ "b"; "100" ] ]
      ()
  in
  check_bool "header" true (contains s "name");
  check_bool "separator" true (contains s "----");
  (* numeric column right-aligned: "  3" under "count" *)
  check_bool "right aligned" true (contains s "    3")

let test_table_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Table.render: ragged row")
    (fun () ->
      ignore (Report.Table.render ~headers:[ "a"; "b" ] ~rows:[ [ "x" ] ] ()))

let test_table_titled () =
  let s =
    Report.Table.render_titled ~title:"T" ~headers:[ "a" ] ~rows:[ [ "1" ] ] ()
  in
  check_bool "title" true (contains s "T\n=")

(* ------------------------------------------------------------------ *)
(* Paper_data                                                         *)

let test_paper_data_complete () =
  check_int "table 1 rows" 28 (List.length Report.Paper_data.table1);
  check_int "table 2 rows" 9 (List.length Report.Paper_data.table2);
  check_bool "find BV_111" true (Report.Paper_data.table1_find "BV_111" <> None);
  check_bool "find CARRY" true (Report.Paper_data.table2_find "CARRY" <> None);
  check_bool "missing" true (Report.Paper_data.table1_find "X" = None)

let test_paper_data_values () =
  let r = Option.get (Report.Paper_data.table1_find "BV_111") in
  check_int "gates dyn" 13 r.Report.Paper_data.gates_dyn;
  let t = Option.get (Report.Paper_data.table2_find "AND") in
  check_int "gates dyn2" 33 t.Report.Paper_data.gates_dyn2

(* ------------------------------------------------------------------ *)
(* Experiments — the reproduction claims themselves                   *)

let table1 = lazy (Report.Experiments.table1_rows ())
let table2 = lazy (Report.Experiments.table2_rows ())
let fig7 = lazy (Report.Experiments.fig7_rows ~shots:512 ())

let test_table1_exact_equivalence () =
  List.iter
    (fun (r : Report.Experiments.table1_row) ->
      check_bool (r.name ^ " tv = 0") true (r.tv < 1e-9))
    (Lazy.force table1)

let test_table1_two_qubits () =
  List.iter
    (fun (r : Report.Experiments.table1_row) ->
      check_int (r.name ^ " dyn qubits") 2 r.qubits_dyn)
    (Lazy.force table1)

let test_table1_matches_paper_gates () =
  (* gate counts match the paper exactly, except BV_1000 where the
     paper's own table is internally inconsistent (all other weight-1
     strings cost 8) *)
  List.iter
    (fun (r : Report.Experiments.table1_row) ->
      if r.name <> "BV_1000" then begin
        let p = Option.get (Report.Paper_data.table1_find r.name) in
        check_int (r.name ^ " trad gates") p.Report.Paper_data.gates_trad
          r.gates_trad;
        check_int (r.name ^ " dyn gates") p.Report.Paper_data.gates_dyn
          r.gates_dyn
      end)
    (Lazy.force table1)

let test_table1_depth_close () =
  List.iter
    (fun (r : Report.Experiments.table1_row) ->
      let p = Option.get (Report.Paper_data.table1_find r.name) in
      check_bool (r.name ^ " trad depth within 2") true
        (abs (r.depth_trad - p.Report.Paper_data.depth_trad) <= 2);
      check_bool (r.name ^ " dyn depth within 2") true
        (abs (r.depth_dyn - p.Report.Paper_data.depth_dyn) <= 2))
    (Lazy.force table1)

let test_table2_matches_paper () =
  List.iter
    (fun (r : Report.Experiments.table2_row) ->
      let p = Option.get (Report.Paper_data.table2_find r.name) in
      check_int (r.name ^ " trad gates exact") p.Report.Paper_data.gates_trad
        r.gates_trad;
      check_int (r.name ^ " dyn2 gates exact") p.Report.Paper_data.gates_dyn2
        r.gates_dyn2;
      check_bool (r.name ^ " dyn1 gates within 6") true
        (abs (r.gates_dyn1 - p.Report.Paper_data.gates_dyn1) <= 6);
      check_int (r.name ^ " qubits") 2 r.qubits_dyn)
    (Lazy.force table2)

let test_table2_ordering () =
  (* the paper's qualitative claim: dyn2 > dyn1 > traditional in gates *)
  List.iter
    (fun (r : Report.Experiments.table2_row) ->
      check_bool (r.name ^ " dyn1 > trad") true (r.gates_dyn1 > r.gates_trad);
      check_bool (r.name ^ " dyn2 > dyn1") true (r.gates_dyn2 > r.gates_dyn1);
      check_bool (r.name ^ " depth grows") true (r.depth_dyn1 > r.depth_trad))
    (Lazy.force table2)

let test_table2_dyn2_equivalent_2input () =
  List.iter
    (fun (r : Report.Experiments.table2_row) ->
      if r.name <> "CARRY" then
        check_bool (r.name ^ " dyn2 exact") true (r.tv_dyn2 < 1e-9);
      check_bool (r.name ^ " dyn1 deviates") true (r.tv_dyn1 > 0.1))
    (Lazy.force table2)

let test_fig7_shape () =
  (* the paper's Fig 7 claim: dynamic-1 significantly reduces accuracy,
     dynamic-2 stays close to traditional *)
  List.iter
    (fun (r : Report.Experiments.fig7_row) ->
      check_bool (r.name ^ " trad high") true (r.accuracy_trad > 0.9);
      check_bool (r.name ^ " dyn1 low") true
        (r.accuracy_dyn1 < r.accuracy_trad -. 0.2);
      if r.name <> "CARRY" then
        check_bool (r.name ^ " dyn2 close to trad") true
          (abs_float (r.accuracy_dyn2 -. r.accuracy_trad) < 0.1))
    (Lazy.force fig7)

let test_mct_rows () =
  let rows = Report.Experiments.mct_rows () in
  check_int "six benchmarks" 6 (List.length rows);
  List.iter
    (fun (r : Report.Experiments.mct_row) ->
      check_bool (r.name ^ " direct cheapest") true
        (r.direct_gates < r.dyn1_gates && r.dyn1_gates <= r.dyn2_gates);
      check_bool (r.name ^ " direct single conditioned per monomial") true
        (r.direct_conditioned >= 1))
    rows

let test_routing_rows () =
  let rows = Report.Experiments.routing_rows () in
  List.iter
    (fun (r : Report.Experiments.routing_row) ->
      check_int "dynamic qubits" 2 r.dyn_qubits;
      check_int "dynamic swaps" 0 r.dyn_swaps;
      check_bool "traditional needs swaps" true (r.trad_swaps > 0))
    rows;
  (* SWAP overhead grows superlinearly with n *)
  let swaps n =
    let r =
      List.find
        (fun (r : Report.Experiments.routing_row) -> r.hidden_bits = n)
        rows
    in
    r.trad_swaps
  in
  check_bool "superlinear growth" true (swaps 16 > 4 * swaps 4)

let test_duration_rows () =
  List.iter
    (fun (r : Report.Experiments.duration_row) ->
      let dyn =
        match (r.dyn_us, r.dyn1_us, r.dyn2_us) with
        | Some d, _, _ -> d
        | _, Some d, _ -> d
        | _, _, Some d -> d
        | None, None, None -> 0.
      in
      check_bool (r.benchmark ^ " dynamic slower") true (dyn > r.trad_us))
    (Report.Experiments.duration_rows ())

let test_scale_rows () =
  List.iter
    (fun (r : Report.Experiments.scale_row) ->
      check_int "two tableau qubits" 2 r.dyn_tableau_qubits;
      check_bool "recovered" true r.recovered)
    (Report.Experiments.scale_rows ())

let test_slots_rows () =
  let rows = Report.Experiments.slots_rows () in
  let find b s =
    List.find
      (fun (r : Report.Experiments.slots_row) ->
        r.benchmark = b && r.scheme = s)
      rows
  in
  check_bool "BV certified at 1" true ((find "BV-4" "-").min_slots = Some 1);
  check_bool "dyn1 certified at 2" true
    ((find "DJ(AND)" "dyn1").min_slots = Some 2);
  check_bool "adder needs width" true
    (match (find "ADDER-2" "dyn1").min_slots with
    | Some k -> k >= 4
    | None -> false)

(* Qubit reuse over the algorithm suite: a rewiring that saves qubits
   must be certified, and every Grover, QPE and Simon row saves some. *)
let test_reuse_rows () =
  let rows = Report.Experiments.reuse_rows () in
  List.iter
    (fun (r : Report.Experiments.reuse_row) ->
      if r.saved > 0 then check_bool (r.name ^ " certified") true r.certified)
    rows;
  List.iter
    (fun prefix ->
      let family =
        List.filter
          (fun (r : Report.Experiments.reuse_row) ->
            String.starts_with ~prefix r.name)
          rows
      in
      check_bool (prefix ^ " rows present") true (family <> []);
      List.iter
        (fun (r : Report.Experiments.reuse_row) ->
          check_bool (r.name ^ " saves qubits") true (r.saved > 0))
        family)
    [ "GROVER"; "QPE"; "SIMON" ]

(* The certified optimizer over its corpus: a Refuted rewrite (the
   optimizer contradicting its own certificate) fails, every row is
   Proved, every dyn2 row shrinks strictly, and measurement folding and
   reset removal each fire somewhere. *)
let test_optimize_rows () =
  let rows =
    try Report.Experiments.optimize_rows ()
    with Dqc.Optimize.Refuted msg -> Alcotest.failf "refuted rewrite: %s" msg
  in
  List.iter
    (fun (r : Report.Experiments.optimize_row) ->
      check_bool (Printf.sprintf "%s [%s] proved" r.name r.scheme) true r.proved)
    rows;
  let dyn2 =
    List.filter
      (fun (r : Report.Experiments.optimize_row) -> r.scheme = "dyn2")
      rows
  in
  check_bool "dyn2 rows present" true (dyn2 <> []);
  List.iter
    (fun (r : Report.Experiments.optimize_row) ->
      check_bool
        (Printf.sprintf "%s [dyn2]: %d -> %d gates" r.name r.gates_before
           r.gates_after)
        true
        (r.gates_after < r.gates_before))
    dyn2;
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  check_bool "measures folded" true
    (total (fun (r : Report.Experiments.optimize_row) -> r.folded) > 0);
  check_bool "resets removed" true
    (total (fun (r : Report.Experiments.optimize_row) -> r.resets_removed) > 0)

let test_reports_render () =
  check_bool "table1 report" true
    (contains (Report.Experiments.table1_report ()) "BV_111");
  check_bool "table2 report" true
    (contains (Report.Experiments.table2_report ()) "CARRY");
  check_bool "fig7 report" true
    (contains (Report.Experiments.fig7_report ~shots:128 ()) "dynamic-2");
  check_bool "equivalence report" true
    (contains (Report.Experiments.equivalence_report ()) "Equivalent")

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged" `Quick test_table_ragged;
          Alcotest.test_case "titled" `Quick test_table_titled;
        ] );
      ( "paper_data",
        [
          Alcotest.test_case "complete" `Quick test_paper_data_complete;
          Alcotest.test_case "values" `Quick test_paper_data_values;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 equivalence" `Slow
            test_table1_exact_equivalence;
          Alcotest.test_case "table1 two qubits" `Slow test_table1_two_qubits;
          Alcotest.test_case "table1 gates match paper" `Slow
            test_table1_matches_paper_gates;
          Alcotest.test_case "table1 depth close" `Slow test_table1_depth_close;
          Alcotest.test_case "table2 matches paper" `Slow
            test_table2_matches_paper;
          Alcotest.test_case "table2 ordering" `Slow test_table2_ordering;
          Alcotest.test_case "table2 dyn2 equivalence" `Slow
            test_table2_dyn2_equivalent_2input;
          Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
          Alcotest.test_case "mct rows" `Slow test_mct_rows;
          Alcotest.test_case "routing rows" `Slow test_routing_rows;
          Alcotest.test_case "duration rows" `Slow test_duration_rows;
          Alcotest.test_case "scale rows" `Slow test_scale_rows;
          Alcotest.test_case "slots rows" `Slow test_slots_rows;
          Alcotest.test_case "reports render" `Slow test_reports_render;
          Alcotest.test_case "reuse rows" `Slow test_reuse_rows;
          Alcotest.test_case "optimize rows" `Slow test_optimize_rows;
        ] );
    ]
