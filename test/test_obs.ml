(* Telemetry layer: runtime switch semantics, span nesting, the
   outcome-tree walk's observability invariants, determinism of counter
   totals across domain counts, and well-formedness of the Chrome-trace
   and metrics-JSON exports (checked with a small JSON parser below). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let hist_pairs = Alcotest.(list (pair int int))

let check_hist msg a b =
  Alcotest.check hist_pairs msg (Sim.Runner.to_list a) (Sim.Runner.to_list b)

let terminal_only () =
  Sim.Measurement_plan.(instrument measure_all) (Testkit.dj_and ())

(* ------------------------------------------------------------------ *)
(* A tiny JSON parser, enough to validate the exporters' output.  The
   library deliberately only emits JSON; parsing back into [Obs.Json.t]
   here keeps the round-trip check honest. *)

exception Parse_error of string

let parse_json (s : string) : Obs.Json.t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'u' ->
              advance ();
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff));
              go ()
          | Some c -> advance (); Buffer.add_char b c; go ()
          | None -> fail "dangling escape")
      | Some c -> advance (); Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Obs.Json.Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Obs.Json.Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Obs.Json.Null
    | Some 't' -> literal "true" (Obs.Json.Bool true)
    | Some 'f' -> literal "false" (Obs.Json.Bool false)
    | Some '"' -> Obs.Json.String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Obs.Json.List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Obs.Json.List (items [])
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obs.Json.Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obs.Json.Obj (fields [])
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obs.Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_list = function Obs.Json.List l -> l | _ -> []

let get_string = function Obs.Json.String s -> Some s | _ -> None

let get_num = function
  | Obs.Json.Int i -> Some (float_of_int i)
  | Obs.Json.Float f -> Some f
  | _ -> None

(* ------------------------------------------------------------------ *)
(* JSON emitter                                                       *)

let test_json_emitter () =
  let open Obs.Json in
  check_string "escaping"
    {|{"a":"line\nbreak \"q\"","b":[1,-2.5,null,true]}|}
    (to_string
       (Obj
          [
            ("a", String "line\nbreak \"q\"");
            ("b", List [ Int 1; Float (-2.5); Null; Bool true ]);
          ]));
  check_string "nan is null" "null" (to_string (Float Float.nan));
  check_string "inf is null" "null" (to_string (Float Float.infinity));
  (* round-trip through the test parser *)
  let v =
    Obj [ ("k", List [ Int 3; String "x\twith\ttabs"; Obj [] ]) ]
  in
  check_bool "round-trip" true (parse_json (to_string v) = v)

(* ------------------------------------------------------------------ *)
(* Runtime switch and buffering semantics                             *)

let test_disabled_noops () =
  check_bool "off by default" false (Obs.enabled ());
  (* all record operations are no-ops, and with_span still runs f *)
  Obs.incr "ghost";
  Obs.set_gauge "ghost.gauge" 1.0;
  check_int "with_span passes through" 42 (Obs.with_span "ghost.span" (fun () -> 42));
  let c, () = Obs.with_collector (fun () -> ()) in
  check_int "nothing recorded while off" 0 (Obs.Collector.counter c "ghost");
  check_bool "no ghost gauge" true (Obs.Collector.gauge c "ghost.gauge" = None);
  check_int "no ghost span" 0 (List.length (Obs.Collector.spans c))

let test_buffering_and_flush () =
  let c = Obs.install () in
  Fun.protect ~finally:Obs.uninstall (fun () ->
      Obs.incr "a";
      Obs.incr ~n:4 "a";
      (* records sit in the per-domain buffer until a flush *)
      check_int "buffered, not yet merged" 0 (Obs.Collector.counter c "a");
      Obs.flush ();
      check_int "merged on flush" 5 (Obs.Collector.counter c "a");
      check_int "untouched counter is 0" 0 (Obs.Collector.counter c "b");
      Obs.set_gauge "g" 1.0;
      Obs.set_gauge "g" 2.5;
      Obs.flush ();
      check_bool "gauge last-write-wins" true
        (Obs.Collector.gauge c "g" = Some 2.5))

let test_span_nesting () =
  let c, () =
    Obs.with_collector (fun () ->
        Obs.with_span "outer" (fun () ->
            Obs.with_span "inner" ~attrs:[ ("k", "v") ] (fun () -> ())))
  in
  match Obs.Collector.spans c with
  | [ outer; inner ] ->
      check_string "outer first" "outer" outer.Obs.Collector.name;
      check_string "inner second" "inner" inner.Obs.Collector.name;
      check_int "outer depth" 0 outer.depth;
      check_int "inner depth" 1 inner.depth;
      check_bool "inner contained" true
        (Int64.add inner.start_ns inner.dur_ns
        <= Int64.add outer.start_ns outer.dur_ns
        && inner.start_ns >= outer.start_ns);
      check_bool "attrs kept" true (inner.attrs = [ ("k", "v") ]);
      check_bool "wall time = outer" true
        (Obs.Collector.root_wall_ns c = outer.dur_ns)
  | spans ->
      Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_survives_exception () =
  let c, () =
    Obs.with_collector (fun () ->
        (try Obs.with_span "boom" (fun () -> failwith "no") with
        | Failure _ -> ()))
  in
  check_int "span recorded despite raise" 1 (List.length (Obs.Collector.spans c))

(* ------------------------------------------------------------------ *)
(* Case-insensitive policy parsing                                    *)

let test_policy_case_insensitive () =
  let parses s p = check_bool s true (Sim.Backend.policy_of_string s = Some p) in
  parses "DENSE" Sim.Backend.Statevector_dense;
  parses "Auto" Sim.Backend.Auto;
  parses "STABILIZER" Sim.Backend.Stabilizer;
  parses "CHP" Sim.Backend.Stabilizer;
  parses "Exact-Branch" Sim.Backend.Exact_branch;
  check_bool "unknown still rejected" true
    (Sim.Backend.policy_of_string "QPU" = None)

(* ------------------------------------------------------------------ *)
(* The outcome-tree walk's observability invariants                   *)

let shots = 256

let run_dense ?(domains = 1) c =
  Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:13 ~domains
    ~shots c

let gauge_int c name =
  Option.map int_of_float (Obs.Collector.gauge c name)

(* every shot shares the unitary prefix the walk runs once *)
let test_prefix_hits_equal_shots () =
  let c, _h = Obs.with_collector (fun () -> run_dense (Testkit.dyn2_and ())) in
  check_int "hit per shot" shots (Obs.Collector.counter c "backend.prefix.hit");
  check_int "backend.shots" shots (Obs.Collector.counter c "backend.shots");
  check_int "engine tagged" 1 (Obs.Collector.counter c "backend.run.dense");
  check_bool "peak states gauge set" true
    (gauge_int c "backend.walk.peak_states" <> None)

(* On one domain every split of the walk copies the state once and
   adds one branch, so the leaves are one more than the copies; the
   dyn2 run's collapses part its shots, on fewer branches than shots. *)
let test_walk_counters () =
  let c, _h = Obs.with_collector (fun () -> run_dense (Testkit.dyn2_and ())) in
  let branches = Obs.Collector.counter c "backend.walk.branches"
  and copies = Obs.Collector.counter c "backend.walk.copies" in
  check_bool "the shots part ways" true (branches > 1);
  check_bool "fewer branches than shots" true (branches < shots);
  check_int "one copy per split" (branches - 1) copies

(* H on [n] qubits, then each measured; with [mid], an X after the
   measurements, so they are no longer the trailing run *)
let uniform n ~mid =
  let module B = Circuit.Circ.Builder in
  let b = B.make ~roles:(Array.make n Circuit.Circ.Data) ~num_bits:n () in
  for q = 0 to n - 1 do
    B.h b q
  done;
  for q = 0 to n - 1 do
    B.measure b ~qubit:q ~bit:q
  done;
  if mid then B.x b 0;
  B.build b

let dense_walk c ~shots =
  let obs, _ =
    Obs.with_collector (fun () ->
        Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:7
          ~domains:1 ~shots c)
  in
  (gauge_int obs "backend.walk.peak_states", obs)

(* Walking the smaller side first bounds the states held at once: at
   most floor(log2 shots) + 2 on H^10 then measure-all at 1024 shots,
   whose shots part at every measurement. *)
let test_walk_peak_states () =
  let p, obs = dense_walk (uniform 10 ~mid:false) ~shots:1024 in
  check_bool "H^10 + measure-all: at most log2 1024 + 2 states" true
    (match p with Some p -> p >= 2 && p <= 12 | None -> false);
  check_bool "H^10 + measure-all: at most one leaf per shot" true
    (Obs.Collector.counter obs "backend.walk.branches" <= 1024)

(* Past the walk's width (forced dense on 17 qubits in uniform
   superposition, measured mid-circuit) no sibling waits: two states,
   the one the shots part from and the copy a shot walks alone; the
   last shot walks on the first. *)
let test_walk_past_the_width () =
  let p, obs = dense_walk (uniform 17 ~mid:true) ~shots:6 in
  check_bool "two states" true (p = Some 2);
  check_int "a copy per shot but the last" 5
    (Obs.Collector.counter obs "backend.walk.copies")

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts                                   *)

let engine_counters c =
  (* per-block shot/wall entries depend on how the shot range was
     sharded, and so do the walk's branches and copies (each domain
     walks its own block); everything else must be independent of the
     domain count *)
  List.filter
    (fun (name, _) ->
      not
        (String.starts_with ~prefix:"parallel.block." name
        || String.starts_with ~prefix:"backend.walk." name))
    (Obs.Collector.counters c)
  |> List.sort compare

let test_counters_domain_independent () =
  let c = Testkit.dyn2_and () in
  let run domains = Obs.with_collector (fun () -> run_dense ~domains c) in
  let c1, h1 = run 1 in
  let c4, h4 = run 4 in
  check_hist "histograms identical 1 vs 4 domains" h1 h4;
  Alcotest.(check (list (pair string int)))
    "counter totals identical 1 vs 4 domains" (engine_counters c1)
    (engine_counters c4);
  check_int "every shot tallied once" shots
    (Obs.Collector.counter c1 "parallel.shots");
  (* per-domain histograms merge bucket-wise: the block spans' histogram
     holds one record per block, whichever domain ran it *)
  let hist_count c name =
    match Obs.Collector.histogram c name with
    | Some h -> Obs.Histogram.count h
    | None -> 0
  in
  check_int "block histogram count 1 domain" 1
    (hist_count c1 "parallel.block");
  check_int "block histogram count 4 domains" 4
    (hist_count c4 "parallel.block")

let test_histogram_unchanged_by_telemetry () =
  let c = Testkit.dyn2_and () in
  let bare = run_dense c in
  let _c, observed = Obs.with_collector (fun () -> run_dense c) in
  check_hist "telemetry does not perturb sampling" bare observed

(* ------------------------------------------------------------------ *)
(* Engine counters from the simulators                                *)

let test_simulator_counters () =
  let c, _h = Obs.with_collector (fun () -> run_dense (Testkit.dyn2_and ())) in
  check_bool "compiled ops counted" true
    (Obs.Collector.counter c "sim.program.ops" > 0);
  check_bool "collapses counted" true
    (Obs.Collector.counter c "backend.walk.branches" > 1)

let test_exact_counters () =
  let c, _d =
    Obs.with_collector (fun () ->
        Sim.Exact.register_distribution (Testkit.dyn2_and ()))
  in
  check_bool "leaves counted" true (Obs.Collector.counter c "sim.exact.leaves" > 0);
  check_bool "enumeration span" true
    (List.exists
       (fun (s : Obs.Collector.span) -> s.name = "exact.enumerate")
       (Obs.Collector.spans c));
  check_bool "enumerated on the dense engine" true
    (List.exists
       (fun (s : Obs.Collector.span) ->
         s.name = "exact.enumerate"
         && List.assoc_opt "engine" s.attrs = Some "dense")
       (Obs.Collector.spans c));
  (* measurements that end the circuit are read in one pass, one leaf,
     where forking on each of them reaches every outcome *)
  let leaves_counted f =
    Obs.Collector.counter (fst (Obs.with_collector f)) "sim.exact.leaves"
  in
  let c = terminal_only () in
  check_bool "forking reaches several leaves" true
    (leaves_counted (fun () -> Testkit.leaves c) > 1);
  check_int "one pass over the trailing measurements" 1
    (leaves_counted (fun () -> Sim.Exact.register_distribution c))

(* An Auto run compiles one program.  The tableau is priced on the
   analyzer's Clifford verdict, and its witness compiled only when it
   wins: BV_1011's dyn2 output, which Auto enumerates on the dense
   engine, compiles only itself. *)
let test_one_compile_per_run () =
  let c, measures =
    Testkit.paper_job Dqc.Toffoli_scheme.Dynamic_2
      (Algorithms.Bv.circuit "1011")
  in
  let obs, _ =
    Obs.with_collector (fun () ->
        Sim.Backend.run_measured ~shots:1024 ~measures c)
  in
  check_int "exact run" 1 (Obs.Collector.counter obs "backend.run.exact");
  check_int "program.compile spans" 1
    (List.length
       (List.filter
          (fun (s : Obs.Collector.span) -> s.name = "program.compile")
          (Obs.Collector.spans obs)))

(* ------------------------------------------------------------------ *)
(* Pipeline spans                                                     *)

let test_pipeline_spans () =
  let c, _out =
    Obs.with_collector (fun () -> Dqc.Pipeline.compile (Testkit.dj_and ()))
  in
  let stats = Obs.Collector.span_stats c in
  let has name = List.mem_assoc name stats in
  List.iter
    (fun name -> check_bool name true (has name))
    [
      "pipeline.compile"; "pipeline.pass.prepare"; "pipeline.pass.transform";
      "pipeline.pass.equivalence";
    ];
  check_bool "per-pass run counters" true
    (Obs.Collector.counter c "pipeline.pass.transform.runs" > 0);
  let compile =
    List.find
      (fun (s : Obs.Collector.span) -> s.name = "pipeline.compile")
      (Obs.Collector.spans c)
  in
  check_int "compile is a root span" 0 compile.depth;
  List.iter
    (fun (s : Obs.Collector.span) ->
      if s.name <> "pipeline.compile" && String.starts_with ~prefix:"pipeline." s.name
      then check_int (s.name ^ " nested under compile") 1 s.depth)
    (Obs.Collector.spans c)

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)

let collect_workload () =
  Obs.with_collector (fun () ->
      let out = Dqc.Pipeline.compile (Testkit.dj_and ()) in
      ignore
        (Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:5 ~shots:64
           out.Dqc.Pipeline.circuit))

let test_chrome_trace_export () =
  let c, () = collect_workload () in
  let json = parse_json (Obs.Chrome_trace.to_string c) in
  let events = get_list (Option.get (member "traceEvents" json)) in
  check_bool "has events" true (events <> []);
  let complete =
    List.filter (fun e -> member "ph" e |> Option.map get_string = Some (Some "X")) events
  in
  let names =
    List.filter_map (fun e -> Option.bind (member "name" e) get_string) complete
  in
  List.iter
    (fun n -> check_bool (n ^ " present") true (List.mem n names))
    [ "pipeline.compile"; "pipeline.pass.transform"; "backend.run" ];
  (* every complete event carries non-negative relative timestamps *)
  List.iter
    (fun e ->
      let num k = Option.get (Option.bind (member k e) get_num) in
      check_bool "ts >= 0" true (num "ts" >= 0.0);
      check_bool "dur >= 0" true (num "dur" >= 0.0))
    complete;
  (* nesting by containment: a stage sits inside pipeline.compile *)
  let find name =
    List.find
      (fun e -> Option.bind (member "name" e) get_string = Some name)
      complete
  in
  let span_of e =
    let num k = Option.get (Option.bind (member k e) get_num) in
    (num "ts", num "ts" +. num "dur")
  in
  let t0, t1 = span_of (find "pipeline.compile") in
  let u0, u1 = span_of (find "pipeline.pass.transform") in
  check_bool "transform contained in compile" true (u0 >= t0 && u1 <= t1);
  check_bool "thread metadata" true
    (List.exists
       (fun e -> member "ph" e |> Option.map get_string = Some (Some "M"))
       events)

let test_metrics_json_export () =
  let c, () = collect_workload () in
  let json = parse_json (Obs.Metrics_json.to_string c) in
  check_bool "schema" true
    (member "schema" json |> Option.map get_string
    = Some (Some Obs.Metrics_json.schema));
  let counters = Option.get (member "counters" json) in
  check_bool "backend.shots exported" true
    (member "backend.shots" counters |> Option.map get_num = Some (Some 64.0));
  let spans = Option.get (member "spans" json) in
  let compile = Option.get (member "pipeline.compile" spans) in
  check_bool "span count exported" true
    (member "count" compile |> Option.map get_num = Some (Some 1.0));
  check_bool "mean_ns exported" true
    (Option.bind (member "mean_ns" compile) get_num <> None)

(* ------------------------------------------------------------------ *)
(* Library JSON parser (Obs.Json.parse — used by the bench gate)      *)

let test_json_library_parser () =
  let v =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "line\nbreak \"q\"");
        ("l", Obs.Json.List [ Obs.Json.Int 3; Obs.Json.Float (-2.5) ]);
        ("n", Obs.Json.Null);
        ("b", Obs.Json.Bool false);
        ("o", Obs.Json.Obj []);
      ]
  in
  check_bool "round-trip through Obs.Json.parse" true
    (Obs.Json.parse (Obs.Json.to_string v) = v);
  check_bool "malformed input raises Parse_error" true
    (match Obs.Json.parse "{\"a\": 1," with
    | exception Obs.Json.Parse_error _ -> true
    | _ -> false);
  check_bool "trailing garbage raises Parse_error" true
    (match Obs.Json.parse "1 2" with
    | exception Obs.Json.Parse_error _ -> true
    | _ -> false);
  check_bool "member lookup" true
    (Obs.Json.member "b" v = Some (Obs.Json.Bool false));
  check_bool "member on non-object" true
    (Obs.Json.member "x" Obs.Json.Null = None);
  check_bool "to_float_opt coerces ints" true
    (Obs.Json.to_float_opt (Obs.Json.Int 7) = Some 7.0)

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)

let hist_of samples =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record h) samples;
  h

let sample_gen =
  QCheck2.Gen.(list_size (int_range 1 400) (int_bound 5_000_000))

let prop_hist_merge_split =
  QCheck2.Test.make ~name:"merge of split samples = histogram of the whole"
    ~count:100
    QCheck2.Gen.(pair sample_gen (int_bound 1000))
    (fun (samples, cut) ->
      let module H = Obs.Histogram in
      let k = cut mod (List.length samples + 1) in
      let left = List.filteri (fun i _ -> i < k) samples in
      let right = List.filteri (fun i _ -> i >= k) samples in
      let whole = hist_of samples in
      let merged = H.merge (hist_of left) (hist_of right) in
      H.count merged = H.count whole
      && H.min_value merged = H.min_value whole
      && H.max_value merged = H.max_value whole
      && H.sum merged = H.sum whole
      && List.for_all
           (fun q -> H.quantile merged q = H.quantile whole q)
           [ 0.5; 0.9; 0.99; 0.999 ])

let prop_hist_quantile_bound =
  QCheck2.Test.make
    ~name:"quantile estimate within the documented error bound" ~count:100
    sample_gen
    (fun samples ->
      let h = hist_of samples in
      let arr = Array.of_list (List.sort compare samples) in
      let n = Array.length arr in
      List.for_all
        (fun q ->
          let rank =
            max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))
          in
          let true_q = arr.(rank) in
          let est = Obs.Histogram.quantile h q in
          est <= true_q
          && float_of_int true_q
             <= (float_of_int est *. (1. +. Obs.Histogram.error_bound)) +. 1.)
        [ 0.5; 0.9; 0.99 ])

let test_histogram_basics () =
  let module H = Obs.Histogram in
  let h = H.create () in
  check_bool "fresh is empty" true (H.is_empty h);
  check_int "empty quantile" 0 (H.quantile h 0.5);
  List.iter (H.record h) [ 10; 20; 30; 40 ];
  check_int "count" 4 (H.count h);
  check_int "min exact" 10 (H.min_value h);
  check_int "max exact" 40 (H.max_value h);
  (* values below 64 ns land in exact buckets *)
  check_int "small-value p50 exact" 20 (H.p50 h);
  check_bool "mean" true (H.mean h = 25.0);
  H.record h (-5);
  check_int "negative clamps to 0" 0 (H.min_value h)

let test_runtime_histograms () =
  let c, () = collect_workload () in
  (match Obs.Collector.histogram c "parallel.block" with
  | Some h ->
      check_int "one record per shot block"
        (min 64 (Sim.Parallel.recommended_domains ()))
        (Obs.Histogram.count h)
  | None -> Alcotest.fail "parallel.block histogram missing");
  check_bool "per-op-class histograms recorded" true
    (List.exists
       (fun (name, h) ->
         String.starts_with ~prefix:"sim.program.op." name
         && Obs.Histogram.count h > 0)
       (Obs.Collector.histograms c));
  (* with_span feeds the histogram of the same name *)
  match Obs.Collector.histogram c "pipeline.compile" with
  | Some h -> check_int "span-fed histogram count" 1 (Obs.Histogram.count h)
  | None -> Alcotest.fail "pipeline.compile histogram missing"

(* ------------------------------------------------------------------ *)
(* Gauge merge rules                                                  *)

let test_gauge_rules () =
  let module C = Obs.Collector in
  C.set_gauge_rule "t.min" C.Min;
  C.set_gauge_rule "t.sum" C.Sum;
  C.set_gauge_rule "t.last" C.Last;
  check_bool "default rule is Max" true (C.gauge_rule "t.max" = C.Max);
  let c = C.create () in
  let absorb gauges = C.absorb c ~spans:[] ~counters:[] ~gauges in
  absorb [ ("t.max", 1.0); ("t.min", 1.0); ("t.sum", 1.0); ("t.last", 1.0) ];
  absorb [ ("t.max", 3.0); ("t.min", 3.0); ("t.sum", 3.0); ("t.last", 3.0) ];
  absorb [ ("t.max", 2.0); ("t.min", 2.0); ("t.sum", 2.0); ("t.last", 2.0) ];
  check_bool "max keeps the peak" true (C.gauge c "t.max" = Some 3.0);
  check_bool "min keeps the floor" true (C.gauge c "t.min" = Some 1.0);
  check_bool "sum accumulates" true (C.gauge c "t.sum" = Some 6.0);
  check_bool "last takes flush order" true (C.gauge c "t.last" = Some 2.0)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)

let test_flight_ring_wraparound () =
  let t, () =
    Obs.Flight.with_recorder ~capacity:8 (fun () ->
        for i = 0 to 19 do
          Obs.Flight.record ~kind:"tick" [ ("i", Obs.Json.Int i) ]
        done)
  in
  check_int "recorded counts overwrites" 20 (Obs.Flight.recorded t);
  check_int "dropped = recorded - capacity" 12 (Obs.Flight.dropped t);
  let evs = Obs.Flight.events t in
  check_int "capacity survivors" 8 (List.length evs);
  Alcotest.(check (list int))
    "survivors are the most recent, in sequence order"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : Obs.Flight.event) -> e.seq) evs);
  check_bool "disarmed after with_recorder" false (Obs.Flight.enabled ())

let test_flight_json_shape () =
  let t, () =
    Obs.Flight.with_recorder ~capacity:4 (fun () ->
        Obs.Flight.record ~kind:"a" [ ("x", Obs.Json.Int 1) ];
        (* a data field named like a header field must not shadow it *)
        Obs.Flight.record ~kind:"b" [ ("kind", Obs.Json.String "shadow") ])
  in
  let json = Obs.Json.parse (Obs.Flight.to_string t) in
  check_bool "schema" true
    (Obs.Json.member "schema" json
    = Some (Obs.Json.String Obs.Flight.schema));
  check_bool "no drops" true
    (Obs.Json.member "dropped" json = Some (Obs.Json.Int 0));
  match Obs.Json.member "events" json with
  | Some (Obs.Json.List [ a; b ]) ->
      check_bool "first kind" true
        (Obs.Json.member "kind" a = Some (Obs.Json.String "a"));
      check_bool "data field kept" true
        (Obs.Json.member "x" a = Some (Obs.Json.Int 1));
      check_bool "header kind wins over data field" true
        (Obs.Json.member "kind" b = Some (Obs.Json.String "b"));
      check_bool "timestamps relative to arming" true
        (Obs.Json.to_float_opt (Option.get (Obs.Json.member "t_us" a))
        |> Option.get >= 0.0)
  | Some _ | None -> Alcotest.fail "expected exactly 2 events"

let unitary g t = Circuit.Instruction.Unitary (Circuit.Instruction.app g t)

(* h; measure; x; measure — the canonical use-after-measure circuit the
   lint gate rejects *)
let use_after_measure () =
  Circuit.Circ.create ~roles:[| Circuit.Circ.Data |] ~num_bits:2
    [
      unitary Circuit.Gate.H 0;
      Circuit.Instruction.Measure { qubit = 0; bit = 0 };
      unitary Circuit.Gate.X 0;
      Circuit.Instruction.Measure { qubit = 0; bit = 1 };
    ]

let test_flight_dump_on_raise () =
  let path = Filename.temp_file "dqc_flight_test" ".json" in
  let options = Dqc.Pipeline.Options.(default |> with_passes [ "lint" ]) in
  let raised =
    try
      let _t, _out =
        Obs.Flight.with_recorder ~dump_path:path (fun () ->
            Dqc.Pipeline.compile ~options (use_after_measure ()))
      in
      false
    with Lint.Rejected _ -> true
  in
  check_bool "pipeline raised Lint.Rejected" true raised;
  let json = Obs.Json.read ~path in
  Sys.remove path;
  check_bool "dump schema" true
    (Obs.Json.member "schema" json
    = Some (Obs.Json.String Obs.Flight.schema));
  let kinds =
    match Obs.Json.member "events" json with
    | Some (Obs.Json.List evs) ->
        List.filter_map
          (fun e -> Option.bind (Obs.Json.member "kind" e) Obs.Json.to_string_opt)
          evs
    | Some _ | None -> []
  in
  List.iter
    (fun k -> check_bool ("dump has " ^ k) true (List.mem k kinds))
    [ "pass.begin"; "lint.diagnostic"; "pipeline.raised" ];
  (* the raise is the last event the ring saw *)
  check_string "raise recorded last" "pipeline.raised"
    (List.nth kinds (List.length kinds - 1))

(* ------------------------------------------------------------------ *)
(* Metrics v2                                                         *)

let test_metrics_json_v2 () =
  let c, () = collect_workload () in
  let json = parse_json (Obs.Metrics_json.to_string c) in
  check_bool "schema is v2" true
    (member "schema" json |> Option.map get_string
    = Some (Some "dqc.obs.metrics/2"));
  (* v1 compatibility: every v1 section survives with its shape *)
  List.iter
    (fun k -> check_bool (k ^ " section present") true (member k json <> None))
    [ "counters"; "gauges"; "spans"; "wall_ns" ];
  check_bool "error bound exported" true
    (Option.bind (member "quantile_error_bound" json) get_num
    = Some Obs.Histogram.error_bound);
  let hists = Option.get (member "histograms" json) in
  let block = Option.get (member "parallel.block" hists) in
  check_bool "per-block count" true
    (member "count" block |> Option.map get_num
    = Some
        (Some (float_of_int (min 64 (Sim.Parallel.recommended_domains ())))));
  let n k = Option.get (Option.bind (member k block) get_num) in
  check_bool "percentile ladder is monotone" true
    (n "min_ns" <= n "p50_ns"
    && n "p50_ns" <= n "p90_ns"
    && n "p90_ns" <= n "p99_ns"
    && n "p99_ns" <= n "p999_ns"
    && n "p999_ns" <= n "max_ns")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [ Alcotest.test_case "emitter + round-trip" `Quick test_json_emitter ] );
      ( "runtime",
        [
          Alcotest.test_case "disabled no-ops" `Quick test_disabled_noops;
          Alcotest.test_case "buffering and flush" `Quick
            test_buffering_and_flush;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span survives exception" `Quick
            test_span_survives_exception;
        ] );
      ( "policy",
        [
          Alcotest.test_case "case-insensitive" `Quick
            test_policy_case_insensitive;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "hits equal shots" `Quick
            test_prefix_hits_equal_shots;
        ] );
      ( "walk",
        [
          Alcotest.test_case "counters" `Quick test_walk_counters;
          Alcotest.test_case "peak states" `Quick test_walk_peak_states;
          Alcotest.test_case "past the width" `Quick test_walk_past_the_width;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "counters domain-independent" `Quick
            test_counters_domain_independent;
          Alcotest.test_case "histogram unchanged by telemetry" `Quick
            test_histogram_unchanged_by_telemetry;
        ] );
      ( "engines",
        [
          Alcotest.test_case "simulator counters" `Quick test_simulator_counters;
          Alcotest.test_case "exact counters" `Quick test_exact_counters;
          Alcotest.test_case "one compile per run" `Quick
            test_one_compile_per_run;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "stage spans" `Quick test_pipeline_spans ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_export;
          Alcotest.test_case "metrics json" `Quick test_metrics_json_export;
          Alcotest.test_case "metrics json v2" `Quick test_metrics_json_v2;
        ] );
      ( "json-parser",
        [
          Alcotest.test_case "library parser" `Quick test_json_library_parser;
        ] );
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest prop_hist_merge_split;
          QCheck_alcotest.to_alcotest prop_hist_quantile_bound;
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "runtime histograms" `Quick
            test_runtime_histograms;
        ] );
      ( "gauges",
        [ Alcotest.test_case "merge rules" `Quick test_gauge_rules ] );
      ( "flight",
        [
          Alcotest.test_case "ring wraparound" `Quick
            test_flight_ring_wraparound;
          Alcotest.test_case "json shape" `Quick test_flight_json_shape;
          Alcotest.test_case "dump on raise" `Quick test_flight_dump_on_raise;
        ] );
    ]
