(* Circuit linter: abstract-domain transfer function, the negative
   corpus (one hand-built circuit per pass, which must trigger exactly
   that diagnostic, and the examples/*.qasm files, which must be
   rejected), and the positive side — every Table I/II benchmark and
   generated oracle compiles under dynamic-1/dynamic-2 to a circuit
   that lints clean. *)

open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let u ?controls g t = Instruction.Unitary (Instruction.app ?controls g t)

let of_pass name (r : Lint.report) =
  List.filter (fun (d : Lint.Diagnostic.t) -> d.pass = name) r.diagnostics

let severities sev (r : Lint.report) =
  List.filter (fun (d : Lint.Diagnostic.t) -> d.severity = sev) r.diagnostics

(* The corpus contract: the target pass fires exactly once, and no
   OTHER diagnostic of equal-or-higher severity muddies the signal. *)
let expect_exactly ~pass ~severity r =
  let fired = of_pass pass r in
  Alcotest.(check int)
    (pass ^ " fires once")
    1 (List.length fired);
  let d = List.hd fired in
  check_bool (pass ^ " severity") true (d.Lint.Diagnostic.severity = severity);
  let noise =
    List.filter
      (fun (x : Lint.Diagnostic.t) ->
        x.pass <> pass
        && Lint.Diagnostic.severity_rank x.severity
           <= Lint.Diagnostic.severity_rank severity)
      r.diagnostics
  in
  Alcotest.(check (list string))
    (pass ^ ": no other diagnostics at this severity")
    []
    (List.map (fun (x : Lint.Diagnostic.t) -> x.pass) noise)

(* ------------------------------------------------------------------ *)
(* Abstract domain and transfer function                              *)

let d1 = [| Circ.Data |]

let states c =
  let t = Lint.Trace.run c in
  Lint.Trace.final t

let test_transfer_measure_known () =
  (* measuring a provably |0> qubit writes Known false, no collapse *)
  let c =
    Circ.create ~roles:d1 ~num_bits:1 [ Instruction.Measure { qubit = 0; bit = 0 } ]
  in
  let f = states c in
  check_bool "bit known 0" true (Lint.State.bit f 0 = Lint.Absdom.Bit.Known false);
  check_bool "qubit stays zero" true
    (Lint.State.qubit f 0 = Lint.Absdom.Qubit.Zero)

let test_transfer_measure_superposed () =
  let c =
    Circ.create ~roles:d1 ~num_bits:1
      [ u Gate.H 0; Instruction.Measure { qubit = 0; bit = 0 } ]
  in
  let f = states c in
  check_bool "bit written" true (Lint.State.bit f 0 = Lint.Absdom.Bit.Written);
  check_bool "qubit collapsed" true
    (Lint.State.qubit f 0 = Lint.Absdom.Qubit.Collapsed)

let test_transfer_x_chain () =
  let c = Circ.create ~roles:d1 ~num_bits:0 [ u Gate.X 0; u Gate.X 0 ] in
  check_bool "x x = zero" true
    (Lint.State.qubit (states c) 0 = Lint.Absdom.Qubit.Zero)

let test_transfer_conditioned_join () =
  (* a conditioned X under an unknown bit joins One with Zero = Basis *)
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Answer |] ~num_bits:1
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Conditioned (Instruction.cond_bit 0 true, Instruction.app Gate.X 1);
      ]
  in
  check_bool "answer is basis" true
    (Lint.State.qubit (states c) 1 = Lint.Absdom.Qubit.Basis)

let test_transfer_entangling_cx () =
  (* CX with a superposed control on a |0> target: both stay diagonal
     in reduced state, so the target is Basis, not Superposed *)
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Data |] ~num_bits:0
      [ u Gate.H 0; u ~controls:[ 0 ] Gate.X 1 ]
  in
  let f = states c in
  check_bool "control superposed" true
    (Lint.State.qubit f 0 = Lint.Absdom.Qubit.Superposed);
  check_bool "target basis" true
    (Lint.State.qubit f 1 = Lint.Absdom.Qubit.Basis)

let test_join_lattice () =
  let open Lint.Absdom.Qubit in
  check_bool "zero one" true (join Zero One = Basis);
  check_bool "zero superposed" true (join Zero Superposed = Top);
  check_bool "collapsed collapsed" true (join Collapsed Collapsed = Collapsed);
  check_bool "collapsed basis drops flag" true (join Collapsed Zero = Basis)

(* ------------------------------------------------------------------ *)
(* Negative corpus: one circuit per pass                              *)

let corpus_use_after_measure () =
  let c =
    Circ.create ~roles:d1 ~num_bits:2
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        u Gate.X 0;
        Instruction.Measure { qubit = 0; bit = 1 };
      ]
  in
  expect_exactly ~pass:"use-after-measure" ~severity:Lint.Diagnostic.Error
    (Lint.run c)

let corpus_cond_unmeasured_bit () =
  let c =
    Circ.create ~roles:d1 ~num_bits:1
      [
        Instruction.Conditioned
          (Instruction.cond_bit 0 true, Instruction.app Gate.X 0);
      ]
  in
  expect_exactly ~pass:"cond-unmeasured-bit" ~severity:Lint.Diagnostic.Error
    (Lint.run c)

let corpus_contradictory_condition () =
  let contradiction = { Instruction.bits = [ (0, true); (0, false) ] } in
  let c =
    Circ.create ~roles:d1 ~num_bits:2
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Reset 0;
        Instruction.Conditioned (contradiction, Instruction.app Gate.X 0);
        Instruction.Measure { qubit = 0; bit = 1 };
      ]
  in
  expect_exactly ~pass:"contradictory-condition" ~severity:Lint.Diagnostic.Error
    (Lint.run c)

let corpus_contradicts_known_bit () =
  (* the measured qubit is provably |0>, so `if (c0 == 1)` never fires *)
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Answer |] ~num_bits:1
      [
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Conditioned
          (Instruction.cond_bit 0 true, Instruction.app Gate.X 1);
      ]
  in
  expect_exactly ~pass:"contradictory-condition"
    ~severity:Lint.Diagnostic.Warning (Lint.run c)

let corpus_measurement_clobbers_bit () =
  let c =
    Circ.create ~roles:d1 ~num_bits:1
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Reset 0;
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
      ]
  in
  expect_exactly ~pass:"measurement-clobbers-bit"
    ~severity:Lint.Diagnostic.Warning (Lint.run c)

let corpus_redundant_reset () =
  let c = Circ.create ~roles:d1 ~num_bits:0 [ Instruction.Reset 0 ] in
  expect_exactly ~pass:"redundant-reset" ~severity:Lint.Diagnostic.Hint
    (Lint.run c)

let corpus_dead_gate () =
  let c =
    Circ.create ~roles:d1 ~num_bits:1
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Reset 0;
        u Gate.X 0;
      ]
  in
  expect_exactly ~pass:"dead-gate" ~severity:Lint.Diagnostic.Warning (Lint.run c)

let corpus_dead_bit () =
  let c =
    Circ.create ~roles:d1 ~num_bits:2
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Reset 0;
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 1 };
      ]
  in
  expect_exactly ~pass:"dead-bit" ~severity:Lint.Diagnostic.Hint (Lint.run c)

let corpus_ancilla_not_zero () =
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Ancilla |] ~num_bits:0
      [ u Gate.X 1 ]
  in
  expect_exactly ~pass:"ancilla-not-zero" ~severity:Lint.Diagnostic.Error
    (Lint.run c)

let corpus_ancilla_unprovable_hint () =
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Ancilla |] ~num_bits:0
      [ u Gate.H 0; u ~controls:[ 0 ] Gate.X 1 ]
  in
  expect_exactly ~pass:"ancilla-not-zero" ~severity:Lint.Diagnostic.Hint
    (Lint.run c)

let corpus_dqc_live_data () =
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Data |] ~num_bits:2
      [
        u Gate.H 0;
        u Gate.H 1;
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Measure { qubit = 1; bit = 1 };
      ]
  in
  expect_exactly ~pass:"dqc-live-data" ~severity:Lint.Diagnostic.Error
    (Lint.run ~passes:(Lint.Dqc_rules.passes ()) c)

let corpus_dqc_answer_reset () =
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Answer |] ~num_bits:0
      [ u Gate.X 1; Instruction.Reset 1 ]
  in
  expect_exactly ~pass:"dqc-answer-reset" ~severity:Lint.Diagnostic.Error
    (Lint.run ~passes:(Lint.Dqc_rules.passes ()) c)

let corpus_cond_after_clobber () =
  (* bit 1 is written by measuring q0 immediately after its reset, so
     the condition below provably tests the constant 0 *)
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Answer |] ~num_bits:2
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Reset 0;
        Instruction.Measure { qubit = 0; bit = 1 };
        Instruction.Conditioned
          (Instruction.cond_bit 1 true, Instruction.app Gate.X 1);
      ]
  in
  expect_exactly ~pass:"cond-after-clobber" ~severity:Lint.Diagnostic.Warning
    (Lint.run ~passes:Lint.certifier_passes c)

let corpus_nonzero_global_phase_reset () =
  (* resetting a superposed qubit discards coherence: the certifier
     must ghost the discarded state *)
  let c =
    Circ.create ~roles:d1 ~num_bits:0 [ u Gate.H 0; Instruction.Reset 0 ]
  in
  expect_exactly ~pass:"nonzero-global-phase-reset"
    ~severity:Lint.Diagnostic.Warning
    (Lint.run ~passes:Lint.certifier_passes c)

(* A gate between the reset and the measurement re-randomizes the
   qubit: the condition is no longer constant, so no diagnostic. *)
let corpus_cond_after_clobber_negative () =
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Answer |] ~num_bits:2
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Reset 0;
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 1 };
        Instruction.Conditioned
          (Instruction.cond_bit 1 true, Instruction.app Gate.X 1);
      ]
  in
  let r = Lint.run ~passes:Lint.certifier_passes c in
  check_int "silent" 0 (List.length (of_pass "cond-after-clobber" r))

(* The negative corpus on disk: every examples/*.qasm must parse and
   carry an error-severity diagnostic under the general passes, which
   is what makes `dqc_cli lint --file` exit 1 on it. *)
let test_examples_rejected () =
  let dir = Filename.concat ".." "examples" in
  let files =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".qasm")
         (Array.to_list (Sys.readdir dir)))
  in
  check_bool "examples/*.qasm is not empty" true (files <> []);
  List.iter
    (fun f ->
      let src =
        In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
      in
      match Qasm.parse src with
      | exception Qasm.Parse_error msg -> Alcotest.failf "%s: %s" f msg
      | c ->
          check_bool
            (f ^ ": error-severity diagnostic")
            true
            (severities Lint.Diagnostic.Error (Lint.run c) <> []))
    files

(* A corpus circuit makes the pipeline's lint gate reject. *)
let test_gate_raises () =
  let c =
    Circ.create ~roles:d1 ~num_bits:2
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        u Gate.X 0;
        Instruction.Measure { qubit = 0; bit = 1 };
      ]
  in
  let options = Dqc.Pipeline.Options.(with_passes [ "lint" ] default) in
  check_bool "the lint gate raises Rejected" true
    (match Dqc.Pipeline.compile ~options c with
    | (_ : Dqc.Pipeline.output) -> false
    | exception Lint.Rejected r -> r.errors > 0)

(* ------------------------------------------------------------------ *)
(* Constructor normalization: Instruction.cond_all / cond_tests       *)

let test_cond_all_dedup () =
  check_bool "duplicates collapse" true
    (Instruction.cond_all [ 3; 3; 1 ] = Instruction.cond_all [ 1; 3 ])

let test_cond_tests_normalize () =
  let c = Instruction.cond_tests [ (2, false); (2, false); (0, true) ] in
  check_int "two entries" 2 (List.length c.Instruction.bits);
  check_bool "sorted" true (c.Instruction.bits = [ (0, true); (2, false) ])

let test_cond_tests_contradiction () =
  check_bool "contradiction rejected" true
    (match Instruction.cond_tests [ (3, true); (3, false) ] with
    | (_ : Instruction.cond) -> false
    | exception Invalid_argument _ -> true)

let test_cond_holds_contradiction () =
  (* documented semantics: a contradictory conjunction never holds *)
  let c = { Instruction.bits = [ (0, true); (0, false) ] } in
  check_bool "never holds" true
    (List.for_all (fun r -> not (Instruction.cond_holds c r)) [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Positive gate: benchmarks and their compilations lint clean        *)

let strictly_clean name (r : Lint.report) =
  Alcotest.(check (list string))
    (name ^ ": no errors or warnings")
    []
    (List.map
       (fun (d : Lint.Diagnostic.t) -> d.pass ^ ": " ^ d.message)
       (severities Lint.Diagnostic.Error r
       @ severities Lint.Diagnostic.Warning r))

let test_table1_transforms_lint_clean () =
  let check_one name traditional =
    let r = Dqc.Transform.transform traditional in
    strictly_clean name (Lint.run ~passes:(Lint.dqc_passes ()) r.circuit)
  in
  List.iter
    (fun s -> check_one ("BV_" ^ s) (Algorithms.Bv.circuit s))
    Algorithms.Bv.paper_benchmarks;
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      check_one o.name (Algorithms.Dj.circuit o))
    Algorithms.Dj.toffoli_free_oracles

let compile_lints_clean ?(slots = 1) scheme name =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name name) in
  let module O = Dqc.Pipeline.Options in
  let options =
    O.default |> O.with_scheme scheme |> O.with_slots slots
    |> O.with_check_equivalence false
  in
  let out = Dqc.Pipeline.compile ~options (Algorithms.Dj.circuit o) in
  match out.lint with
  | None -> Alcotest.fail (name ^ ": lint gate did not run")
  | Some r ->
      strictly_clean
        (Printf.sprintf "%s/%s/%d-slot" name
           (Dqc.Toffoli_scheme.to_string scheme)
           slots)
        r

let test_table2_dyn1_lint_clean () =
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      compile_lints_clean Dqc.Toffoli_scheme.Dynamic_1 o.name)
    Algorithms.Dj_toffoli.oracles

let test_table2_dyn2_lint_clean () =
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      compile_lints_clean Dqc.Toffoli_scheme.Dynamic_2 o.name)
    Algorithms.Dj_toffoli.oracles

let test_multi_slot_lint_clean () =
  compile_lints_clean ~slots:2 Dqc.Toffoli_scheme.Dynamic_1 "CARRY"

let test_lowered_variants_lint_clean () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let module O = Dqc.Pipeline.Options in
  let options =
    O.default |> O.with_peephole true |> O.with_native true
    |> O.with_check_equivalence false
  in
  let out = Dqc.Pipeline.compile ~options (Algorithms.Dj.circuit o) in
  match out.lint with
  | None -> Alcotest.fail "lint gate did not run"
  | Some r -> strictly_clean "AND peephole+native" r

(* The certifier-support passes are advisory, but the compiler's own
   output must not trip them: every compiled Table II benchmark obeys
   the measure-before-reset discipline and never conditions on a
   degenerate bit. *)
let test_certifier_passes_silent_on_compilations () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (o : Algorithms.Oracle.t) ->
          let r =
            Dqc.Toffoli_scheme.transform scheme (Algorithms.Dj.circuit o)
          in
          strictly_clean
            (Printf.sprintf "%s/%s certifier passes" o.name
               (Dqc.Toffoli_scheme.to_string scheme))
            (Lint.run ~passes:Lint.certifier_passes r.circuit))
        Algorithms.Dj_toffoli.oracles)
    [ Dqc.Toffoli_scheme.Dynamic_1; Dqc.Toffoli_scheme.Dynamic_2 ]

(* The benchmark-wide corpus (the Table II oracles and the generated
   ones of 4 to 8 inputs) compiled as `dqc_cli lint` compiles it — no
   lint inside the pipeline, the DQC passes for one live data qubit
   run on the output — and held to [Lint.clean]: no errors.  Warnings
   are allowed, since the dyn2 outputs of the wider generated oracles
   carry some. *)
let test_oracle_corpus_clean () =
  let module O = Dqc.Pipeline.Options in
  List.iter
    (fun scheme ->
      let options =
        O.default |> O.with_scheme scheme |> O.with_mode `Algorithm1
        |> O.with_slots 1 |> O.with_check_equivalence false
        |> O.with_lint false
      in
      List.iter
        (fun (o : Algorithms.Oracle.t) ->
          let out = Dqc.Pipeline.compile ~options (Algorithms.Dj.circuit o) in
          let r = Lint.run ~passes:(Lint.dqc_passes ~max_live:1 ()) out.circuit in
          check_bool
            (Printf.sprintf "%s [%s]: %s" o.name
               (Dqc.Toffoli_scheme.to_string scheme)
               (Lint.summary r))
            true (Lint.clean r))
        Testkit.table2_and_generated_oracles)
    [ Dqc.Toffoli_scheme.Dynamic_1; Dqc.Toffoli_scheme.Dynamic_2 ]

let test_direct_mct_lint_clean () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let r =
    Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Direct_mct
      (Algorithms.Dj.circuit o)
  in
  strictly_clean "AND direct-mct" (Lint.run ~passes:(Lint.dqc_passes ()) r.circuit)

(* ------------------------------------------------------------------ *)
(* Report plumbing                                                    *)

let test_report_json () =
  let c =
    Circ.create ~roles:d1 ~num_bits:1
      [ u Gate.H 0; Instruction.Measure { qubit = 0; bit = 0 } ]
  in
  let r = Lint.run c in
  let json = Obs.Json.to_string (Lint.to_json ~name:"probe" r) in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "schema" true (contains "\"schema\":\"dqc.lint/1\"" json);
  check_bool "circuit name" true (contains "\"probe\"" json);
  check_bool "clean flag" true (contains "\"clean\":true" json)

(* SARIF export: serialize, re-parse with the mini JSON reader, and
   check the document structure against the report it came from *)
let test_sarif_roundtrip () =
  let c =
    Circ.create ~roles:d1 ~num_bits:2
      [
        u Gate.H 0;
        Instruction.Measure { qubit = 0; bit = 0 };
        u Gate.X 0;
        Instruction.Measure { qubit = 0; bit = 1 };
      ]
  in
  let r = Lint.run c in
  check_bool "corpus has diagnostics" true (r.diagnostics <> []);
  let doc =
    Obs.Json.parse
      (Obs.Json.to_string (Lint.to_sarif ~name:"probe.qasm" r))
  in
  let str path j =
    match Obs.Json.member path j with
    | Some (Obs.Json.String s) -> s
    | _ -> Alcotest.fail ("missing string field " ^ path)
  in
  let int path j =
    match Obs.Json.member path j with
    | Some (Obs.Json.Int n) -> n
    | _ -> Alcotest.fail ("missing int field " ^ path)
  in
  let get path j =
    match Obs.Json.member path j with
    | Some v -> v
    | None -> Alcotest.fail ("missing field " ^ path)
  in
  let list = function
    | Obs.Json.List l -> l
    | _ -> Alcotest.fail "expected a JSON array"
  in
  Alcotest.(check string) "version" "2.1.0" (str "version" doc);
  check_bool "$schema present" true
    (Obs.Json.member "$schema" doc <> None);
  let run =
    match list (get "runs" doc) with
    | [ run ] -> run
    | _ -> Alcotest.fail "exactly one run"
  in
  let driver = get "driver" (get "tool" run) in
  Alcotest.(check string) "driver name" "dqc-lint" (str "name" driver);
  let rules = list (get "rules" driver) in
  let results = list (get "results" run) in
  check_int "one result per diagnostic"
    (List.length r.diagnostics)
    (List.length results);
  (* diagnostics are sorted; results preserve that order *)
  List.iter2
    (fun (d : Lint.Diagnostic.t) result ->
      Alcotest.(check string) "ruleId" d.pass (str "ruleId" result);
      Alcotest.(check string) "level"
        (match d.severity with
        | Lint.Diagnostic.Error -> "error"
        | Lint.Diagnostic.Warning -> "warning"
        | Lint.Diagnostic.Hint -> "note")
        (str "level" result);
      (* ruleIndex points at the rule carrying this ruleId *)
      let rule = List.nth rules (int "ruleIndex" result) in
      Alcotest.(check string) "ruleIndex resolves" d.pass (str "id" rule);
      let location =
        match list (get "locations" result) with
        | [ l ] -> l
        | _ -> Alcotest.fail "exactly one location"
      in
      let physical = get "physicalLocation" location in
      Alcotest.(check string) "artifact uri" "probe.qasm"
        (str "uri" (get "artifactLocation" physical));
      check_int "startLine is the 1-based instruction index"
        (d.instr_index + 1)
        (int "startLine" (get "region" physical)))
    r.diagnostics results

let test_lint_counters () =
  let c = Circ.create ~roles:d1 ~num_bits:0 [ Instruction.Reset 0 ] in
  let collector, r = Obs.with_collector (fun () -> Lint.run c) in
  check_int "one hint" 1 r.hints;
  let metrics = Obs.Json.to_string (Obs.Metrics_json.to_json collector) in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "per-pass counter" true
    (contains "lint.pass.redundant-reset" metrics)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "transfer",
        [
          Alcotest.test_case "measure known zero" `Quick
            test_transfer_measure_known;
          Alcotest.test_case "measure superposed" `Quick
            test_transfer_measure_superposed;
          Alcotest.test_case "x x roundtrip" `Quick test_transfer_x_chain;
          Alcotest.test_case "conditioned join" `Quick
            test_transfer_conditioned_join;
          Alcotest.test_case "entangling cx stays diagonal" `Quick
            test_transfer_entangling_cx;
          Alcotest.test_case "qubit lattice joins" `Quick test_join_lattice;
        ] );
      ( "negative corpus",
        [
          Alcotest.test_case "use-after-measure" `Quick
            corpus_use_after_measure;
          Alcotest.test_case "cond-unmeasured-bit" `Quick
            corpus_cond_unmeasured_bit;
          Alcotest.test_case "contradictory-condition" `Quick
            corpus_contradictory_condition;
          Alcotest.test_case "contradicts known bit" `Quick
            corpus_contradicts_known_bit;
          Alcotest.test_case "measurement-clobbers-bit" `Quick
            corpus_measurement_clobbers_bit;
          Alcotest.test_case "redundant-reset" `Quick corpus_redundant_reset;
          Alcotest.test_case "dead-gate" `Quick corpus_dead_gate;
          Alcotest.test_case "dead-bit" `Quick corpus_dead_bit;
          Alcotest.test_case "ancilla-not-zero" `Quick
            corpus_ancilla_not_zero;
          Alcotest.test_case "ancilla unprovable hint" `Quick
            corpus_ancilla_unprovable_hint;
          Alcotest.test_case "dqc-live-data" `Quick corpus_dqc_live_data;
          Alcotest.test_case "dqc-answer-reset" `Quick
            corpus_dqc_answer_reset;
          Alcotest.test_case "cond-after-clobber" `Quick
            corpus_cond_after_clobber;
          Alcotest.test_case "cond-after-clobber negative" `Quick
            corpus_cond_after_clobber_negative;
          Alcotest.test_case "nonzero-global-phase-reset" `Quick
            corpus_nonzero_global_phase_reset;
          Alcotest.test_case "lint gate raises" `Quick test_gate_raises;
          Alcotest.test_case "examples/*.qasm rejected" `Quick
            test_examples_rejected;
        ] );
      ( "constructors",
        [
          Alcotest.test_case "cond_all dedup" `Quick test_cond_all_dedup;
          Alcotest.test_case "cond_tests normalize" `Quick
            test_cond_tests_normalize;
          Alcotest.test_case "cond_tests contradiction" `Quick
            test_cond_tests_contradiction;
          Alcotest.test_case "cond_holds contradiction" `Quick
            test_cond_holds_contradiction;
        ] );
      ( "benchmarks lint clean",
        [
          Alcotest.test_case "table1 transforms" `Quick
            test_table1_transforms_lint_clean;
          Alcotest.test_case "table2 dynamic-1" `Quick
            test_table2_dyn1_lint_clean;
          Alcotest.test_case "table2 dynamic-2" `Quick
            test_table2_dyn2_lint_clean;
          Alcotest.test_case "multi-slot" `Quick test_multi_slot_lint_clean;
          Alcotest.test_case "peephole+native" `Quick
            test_lowered_variants_lint_clean;
          Alcotest.test_case "certifier passes silent" `Quick
            test_certifier_passes_silent_on_compilations;
          Alcotest.test_case "direct mct" `Quick test_direct_mct_lint_clean;
          Alcotest.test_case "18 oracles x 2 schemes" `Quick
            test_oracle_corpus_clean;
        ] );
      ( "report",
        [
          Alcotest.test_case "json schema" `Quick test_report_json;
          Alcotest.test_case "sarif roundtrip" `Quick test_sarif_roundtrip;
          Alcotest.test_case "telemetry counters" `Quick test_lint_counters;
        ] );
    ]
