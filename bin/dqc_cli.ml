(* Command-line interface to the DQC transformation library:
   regenerate the paper's tables and figure, transform individual
   benchmarks, inspect circuits, and run simulations. *)

open Cmdliner

let scheme_conv =
  let parse = function
    | "dynamic-1" | "dyn1" -> Ok Dqc.Toffoli_scheme.Dynamic_1
    | "dynamic-2" | "dyn2" -> Ok Dqc.Toffoli_scheme.Dynamic_2
    | "dynamic-2-fresh" -> Ok (Dqc.Toffoli_scheme.Dynamic_2_shared `Fresh)
    | "dynamic-2-global" -> Ok (Dqc.Toffoli_scheme.Dynamic_2_shared `Global)
    | "direct-mct" | "mct" -> Ok Dqc.Toffoli_scheme.Direct_mct
    | s -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  let print fmt s =
    Format.pp_print_string fmt (Dqc.Toffoli_scheme.to_string s)
  in
  Arg.conv (parse, print)

let mode_conv =
  let parse = function
    | "algorithm1" -> Ok `Algorithm1
    | "sound" -> Ok `Sound
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with `Algorithm1 -> "algorithm1" | `Sound -> "sound")
  in
  Arg.conv (parse, print)

(* Sized oracle families beyond the fixed suites: AND_9, NAND_6, OR_4,
   MAJ_7, ... generated on demand (arity capped by Mct_bench). *)
let generated_oracle name =
  let sized prefix =
    let pl = String.length prefix in
    if String.length name > pl && String.sub name 0 pl = prefix then
      int_of_string_opt (String.sub name pl (String.length name - pl))
    else None
  in
  let try_make make n = try Some (make n) with Invalid_argument _ -> None in
  List.find_map
    (fun (prefix, make) ->
      Option.bind (sized prefix) (try_make make))
    [
      ("AND_", Algorithms.Mct_bench.and_n);
      ("NAND_", Algorithms.Mct_bench.nand_n);
      ("OR_", Algorithms.Mct_bench.or_n);
      ("MAJ_", Algorithms.Mct_bench.majority_n);
      ("XOR_", Algorithms.Mct_bench.xor_n);
    ]

let find_oracle name =
  match Algorithms.Dj_toffoli.oracle_by_name name with
  | Some o -> Some o
  | None -> (
      match Algorithms.Dj.oracle_by_name name with
      | Some o -> Some o
      | None -> (
          match
            List.find_opt
              (fun (o : Algorithms.Oracle.t) -> o.name = name)
              Algorithms.Mct_bench.suite
          with
          | Some o -> Some o
          | None -> generated_oracle name))

(* GROVER_3, QPE_4, SIMON_110, ADDER_2, ... — measured algorithm
   circuits, the subjects of the qubit-reuse pass *)
let algorithm_circuit name =
  let suffix prefix =
    let pl = String.length prefix in
    if String.length name > pl && String.sub name 0 pl = prefix then
      Some (String.sub name pl (String.length name - pl))
    else None
  in
  let sized prefix = Option.bind (suffix prefix) int_of_string_opt in
  let try_make make = try Some (make ()) with Invalid_argument _ -> None in
  match sized "GROVER_" with
  | Some n ->
      try_make (fun () ->
          Algorithms.Grover.measured ~n ~marked:(min 5 ((1 lsl n) - 1)))
  | None -> (
      match sized "QPE_" with
      | Some bits ->
          try_make (fun () -> Algorithms.Qpe.kitaev ~bits ~phase:(3. /. 8.))
      | None -> (
          match sized "ADDER_" with
          | Some n -> try_make (fun () -> Algorithms.Arithmetic.measured n)
          | None -> (
              match sized "XORA_" with
              | Some n ->
                  try_make (fun () -> Algorithms.Mct_bench.adaptive_parity n)
              | None -> (
                  match suffix "SIMON_" with
                  | Some secret ->
                      try_make (fun () ->
                          Algorithms.Simon.measured_circuit secret)
                  | None -> None))))

let benchmark_circuit name =
  if String.length name > 3 && String.sub name 0 3 = "BV_" then
    try
      Some (Algorithms.Bv.circuit (String.sub name 3 (String.length name - 3)))
    with Invalid_argument _ -> None
  else
    match algorithm_circuit name with
    | Some c -> Some c
    | None -> Option.map Algorithms.Dj.circuit (find_oracle name)

let cyclic_reason qs =
  "cyclic data-qubit interaction involving qubits "
  ^ String.concat ", " (List.map string_of_int qs)

(* A circuit Algorithm 1 cannot schedule is bad input: say why, exit 1. *)
let exit_not_transformable reason =
  prerr_endline ("not transformable: " ^ reason);
  exit 1

(* ------------------------------------------------------------------ *)
(* tables / fig7 / equivalence                                        *)

let tables_cmd =
  let run () =
    print_string (Report.Experiments.table1_report ());
    print_newline ();
    print_string (Report.Experiments.table2_report ())
  in
  Cmd.v (Cmd.info "tables" ~doc:"Regenerate the paper's Table I and Table II")
    Term.(const run $ const ())

let fig7_cmd =
  let shots =
    Arg.(value & opt int 1024 & info [ "shots" ] ~doc:"Shots per benchmark")
  in
  let seed = Arg.(value & opt int 0xF1607 & info [ "seed" ] ~doc:"RNG seed") in
  let run shots seed =
    print_string (Report.Experiments.fig7_report ~shots ~seed ())
  in
  Cmd.v
    (Cmd.info "fig7"
       ~doc:"Regenerate Fig 7 (computational accuracy of the two schemes)")
    Term.(const run $ shots $ seed)

let mct_cmd =
  let run () = print_string (Report.Experiments.mct_report ()) in
  Cmd.v
    (Cmd.info "mct"
       ~doc:
         "Run the future-work experiment: dynamic multiple-control Toffoli \
          realizations")
    Term.(const run $ const ())

let sparsity_cmd =
  let run () = print_string (Report.Experiments.sparsity_report ()) in
  Cmd.v
    (Cmd.info "sparsity"
       ~doc:
         "Run the static-sparsity experiment: the relational analyzer's \
          amplitude bounds against measured dense sparsity, per benchmark \
          and scheme")
    Term.(const run $ const ())

let equivalence_cmd =
  let run () = print_string (Report.Experiments.equivalence_report ()) in
  Cmd.v
    (Cmd.info "equivalence"
       ~doc:"Check exact functional equivalence on every benchmark")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* transform                                                          *)

let benchmark_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCHMARK"
        ~doc:
          "Benchmark name: BV_<bits> (e.g. BV_101), a Toffoli-free DJ oracle \
           (DJ_XOR, ...) or a Toffoli-based one (AND, OR, ..., CARRY)")

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Dqc.Toffoli_scheme.Dynamic_2
    & info [ "scheme" ] ~doc:"Toffoli scheme: dynamic-1, dynamic-2, ...")

let mode_arg =
  Arg.(
    value
    & opt mode_conv `Algorithm1
    & info [ "mode" ] ~doc:"Scheduling mode: algorithm1 (paper) or sound")

let transform_cmd =
  let qasm = Arg.(value & flag & info [ "qasm" ] ~doc:"Emit OpenQASM 3") in
  let max_width =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-width" ] ~doc:"Wrap the drawing at this many columns")
  in
  let native =
    Arg.(value & flag & info [ "native" ] ~doc:"Lower to the {rz,sx,x,cx} basis")
  in
  let run name scheme mode qasm native max_width =
    match benchmark_circuit name with
    | None -> prerr_endline ("unknown benchmark: " ^ name); exit 1
    | Some c -> (
        try
          let r = Dqc.Toffoli_scheme.transform ~mode scheme c in
          let r =
            if native then
              { r with Dqc.Transform.circuit = Transpile.Basis.to_native r.circuit }
            else r
          in
          Printf.printf "traditional: %d qubits, %d gates, depth %d\n"
            (Circuit.Circ.num_qubits c)
            (Circuit.Metrics.gate_count c)
            (Circuit.Metrics.traditional_depth c);
          Printf.printf "dynamic (%s): %d qubits, %d gates, depth %d, %d conditioned, %d violations\n\n"
            (Dqc.Toffoli_scheme.to_string scheme)
            (Circuit.Circ.num_qubits r.circuit)
            (Circuit.Metrics.gate_count r.circuit)
            (Circuit.Metrics.dynamic_depth r.circuit)
            (Dqc.Transform.conditioned_count r)
            (List.length r.violations);
          if qasm then print_string (Circuit.Qasm.to_string r.circuit)
          else begin
            print_string (Circuit.Draw.to_string ?max_width r.circuit);
            print_newline ()
          end;
          Printf.printf "\nexact TV distance to traditional: %.6f\n"
            (Dqc.Equivalence.tv_distance c r)
        with
        | Dqc.Transform.Not_transformable msg ->
            Printf.printf "not transformable: %s\n" msg
        | Dqc.Interaction.Cyclic qs ->
            Printf.printf "not transformable: %s\n" (cyclic_reason qs))
  in
  Cmd.v
    (Cmd.info "transform" ~doc:"Transform a benchmark into its DQC and draw it")
    Term.(
      const run $ benchmark_arg $ scheme_arg $ mode_arg $ qasm $ native
      $ max_width)

(* ------------------------------------------------------------------ *)
(* simulate                                                           *)

let backend_conv =
  let parse s =
    match Sim.Backend.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown backend %S" s))
  in
  Arg.conv (parse, Sim.Backend.pp_policy)

(* Reject bad worker counts at parse time — a raw Invalid_argument from
   Sim.Parallel.run is not an acceptable CLI experience. *)
let domains_conv =
  let parse s =
    match int_of_string_opt s with
    | Some d when d >= 1 -> Ok d
    | Some d ->
        Error
          (`Msg
            (Printf.sprintf
               "--domains must be at least 1 (got %d): the shot engine needs \
                a worker to run on"
               d))
    | None -> Error (`Msg (Printf.sprintf "invalid domain count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  Arg.(
    value
    & opt (some domains_conv) None
    & info [ "domains" ]
        ~doc:
          "Worker domains for the parallel shot engine (default: all \
           recommended cores; the histogram is seed-deterministic either \
           way)")

(* Output paths are validated at parse time: a typo'd directory should
   be one clean line before any work starts, not an uncaught Sys_error
   after a minute of simulation. *)
let out_path_conv =
  let parse path =
    if path = "" then Error (`Msg "output path is empty")
    else if Sys.file_exists path && Sys.is_directory path then
      Error (`Msg (Printf.sprintf "%s is a directory, not a writable file" path))
    else
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir) then
        Error
          (`Msg
            (Printf.sprintf "cannot write %s: directory %s does not exist" path
               dir))
      else if not (Sys.is_directory dir) then
        Error
          (`Msg
            (Printf.sprintf "cannot write %s: %s is not a directory" path dir))
      else Ok path
  in
  Arg.conv (parse, Format.pp_print_string)

let trace_arg =
  Arg.(
    value
    & opt (some out_path_conv) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of every pipeline/backend \
           span (open at chrome://tracing or ui.perfetto.dev)")

let metrics_arg =
  Arg.(
    value
    & opt (some out_path_conv) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the dqc.obs.metrics/2 JSON (counters, gauges, span stats, \
           percentile histograms)")

let flight_arg =
  Arg.(
    value
    & opt (some out_path_conv) None
    & info [ "flight-record" ] ~docv:"FILE"
        ~doc:
          "Arm the flight recorder and write its dqc.flight/1 event ring to \
           FILE (the pipeline also dumps there automatically if it raises)")

(* Arm the flight recorder for the duration of [f]; the same path is
   the armed dump target, so a pipeline abort mid-[f] writes the ring
   even though the on-success write below is never reached. *)
let with_flight flight f =
  match flight with
  | None -> (None, f ())
  | Some path ->
      let recorder, x =
        Fun.protect
          ~finally:(fun () -> Obs.Flight.uninstall ())
          (fun () ->
            let r = Obs.Flight.install ~dump_path:path () in
            (r, f ()))
      in
      (Some (path, recorder), x)

let export_telemetry ?trace ?metrics ?flight collector =
  Option.iter
    (fun path ->
      Obs.Chrome_trace.write ?flight:(Option.map snd flight) ~path collector;
      Printf.printf "chrome trace written to %s\n" path)
    trace;
  Option.iter
    (fun path ->
      Obs.Metrics_json.write ~path collector;
      Printf.printf "metrics written to %s\n" path)
    metrics;
  Option.iter
    (fun (path, recorder) ->
      Obs.Flight.write ~path recorder;
      Printf.printf "flight record written to %s\n" path)
    flight

let simulate_cmd =
  let shots = Arg.(value & opt int 1024 & info [ "shots" ] ~doc:"Shot count") in
  let dynamic =
    Arg.(value & flag & info [ "dynamic" ] ~doc:"Simulate the DQC instead")
  in
  let backend =
    Arg.(
      value
      & opt backend_conv Sim.Backend.Auto
      & info [ "backend" ]
          ~doc:"Execution backend: auto, dense, sparse, stabilizer or exact")
  in
  let run name scheme shots dynamic backend domains trace metrics flight =
    match benchmark_circuit name with
    | None -> prerr_endline ("unknown benchmark: " ^ name); exit 1
    | Some c -> (
        try
          let circuit, measures =
            if dynamic then begin
              let r = Dqc.Toffoli_scheme.transform scheme c in
              let nd = List.length r.data_bit in
              ( r.circuit,
                List.mapi (fun k (_, phys) -> (phys, nd + k)) r.answer_phys )
            end
            else (c, List.init (Circuit.Circ.num_qubits c) (fun q -> (q, q)))
          in
          let want_telemetry =
            trace <> None || metrics <> None || flight <> None
          in
          let run_once () =
            Sim.Backend.run_measured ~policy:backend ?domains ~shots ~measures
              circuit
          in
          let h =
            if want_telemetry then begin
              let recorder, (collector, h) =
                with_flight flight (fun () -> Obs.with_collector run_once)
              in
              export_telemetry ?trace ?metrics ?flight:recorder collector;
              h
            end
            else run_once ()
          in
          Format.printf "backend: %a@.%a@." Sim.Backend.pp_policy backend
            Sim.Runner.pp h
        with
        | Sim.Stabilizer.Unsupported msg ->
            prerr_endline msg;
            exit 1
        | Dqc.Transform.Not_transformable msg -> exit_not_transformable msg
        | Dqc.Interaction.Cyclic qs -> exit_not_transformable (cyclic_reason qs)
        | Invalid_argument msg -> prerr_endline msg; exit 1)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run shots on a benchmark (traditional or DQC)")
    Term.(
      const run $ benchmark_arg $ scheme_arg $ shots $ dynamic $ backend
      $ domains_arg $ trace_arg $ metrics_arg $ flight_arg)

(* ------------------------------------------------------------------ *)
(* stats                                                              *)

let stats_cmd =
  let bench =
    Arg.(
      value
      & pos 0 string "AND_9"
      & info [] ~docv:"BENCHMARK"
          ~doc:
            "Benchmark to profile (default AND_9 — the 10-qubit DJ \
             acceptance workload; see transform for the name grammar)")
  in
  let shots = Arg.(value & opt int 1024 & info [ "shots" ] ~doc:"Shot count") in
  let seed =
    Arg.(
      value
      & opt int Sim.Runner.default_seed
      & info [ "seed" ] ~doc:"RNG seed")
  in
  let backend =
    Arg.(
      value
      & opt backend_conv Sim.Backend.Auto
      & info [ "backend" ]
          ~doc:"Execution backend: auto, dense, sparse, stabilizer or exact")
  in
  let no_check =
    Arg.(
      value & flag
      & info [ "no-check" ] ~doc:"Skip the equivalence-check pipeline stage")
  in
  let passes =
    Arg.(
      value
      & opt (some string) None
      & info [ "passes" ]
          ~doc:
            "Override the pass schedule with a comma-separated list of \
             built-in pass names (see the passes subcommand)")
  in
  let run name scheme mode shots seed backend domains no_check passes trace
      metrics flight =
    match benchmark_circuit name with
    | None -> prerr_endline ("unknown benchmark: " ^ name); exit 1
    | Some c -> (
        try
          let module O = Dqc.Pipeline.Options in
          let options =
            O.default |> O.with_scheme scheme |> O.with_mode mode
            |> O.with_backend_policy backend
            |> O.with_check_equivalence (not no_check)
          in
          let options =
            match passes with
            | None -> options
            | Some names ->
                O.with_passes (String.split_on_char ',' names) options
          in
          let recorder, (collector, (out, h)) =
            with_flight flight (fun () ->
                Obs.with_collector (fun () ->
                    let out = Dqc.Pipeline.compile ~options c in
                    let nd = List.length out.data_bit in
                    let measures =
                      List.mapi
                        (fun k (_, phys) -> (phys, nd + k))
                        out.answer_phys
                    in
                    let h =
                      Sim.Backend.run_measured ~policy:backend ~seed ?domains
                        ~shots ~measures out.circuit
                    in
                    (out, h)))
          in
          Printf.printf
            "workload: %s (%s), %d shots — compiled to %d qubits, %d gates, \
             depth %d\n"
            name
            (Dqc.Toffoli_scheme.to_string scheme)
            shots out.qubits out.gates out.depth;
          (match out.tv with
          | Some tv ->
              Printf.printf "equivalence: %s TV distance %.6f\n"
                (if out.tv_sampled then "sampled" else "exact")
                tv
          | None -> print_string "equivalence: check skipped\n");
          Printf.printf "histogram: %d shots over %d distinct outcomes\n\n"
            (Sim.Runner.shots h)
            (List.length (Sim.Runner.to_list h));
          print_string (Report.Obs_report.summary collector);
          export_telemetry ?trace ?metrics ?flight:recorder collector
        with
        | Sim.Stabilizer.Unsupported msg -> prerr_endline msg; exit 1
        | Dqc.Transform.Not_transformable msg -> exit_not_transformable msg
        | Dqc.Interaction.Cyclic qs -> exit_not_transformable (cyclic_reason qs)
        | Dqc.Pipeline.Invalid_options msg ->
            prerr_endline ("invalid options: " ^ msg);
            exit 1
        | Invalid_argument msg -> prerr_endline msg; exit 1)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Compile and run a benchmark with telemetry on: print the \
          per-stage/per-engine breakdown, optionally exporting the Chrome \
          trace and metrics JSON")
    Term.(
      const run $ bench $ scheme_arg $ mode_arg $ shots $ seed $ backend
      $ domains_arg $ no_check $ passes $ trace_arg $ metrics_arg $ flight_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                            *)

let profile_cmd =
  let bench =
    Arg.(
      value
      & pos 0 string "AND_9"
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmark to profile repeatedly (see transform)")
  in
  let shots =
    Arg.(value & opt int 256 & info [ "shots" ] ~doc:"Shots per repetition")
  in
  let repeat =
    Arg.(
      value & opt int 20
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Compile-and-run repetitions to accumulate distributions over")
  in
  let top =
    Arg.(
      value & opt int 8
      & info [ "top" ] ~docv:"K" ~doc:"Hottest spans to list")
  in
  let seed =
    Arg.(
      value
      & opt int Sim.Runner.default_seed
      & info [ "seed" ] ~doc:"Base RNG seed (repetition k runs with seed+k)")
  in
  let backend =
    Arg.(
      value
      & opt backend_conv Sim.Backend.Auto
      & info [ "backend" ]
          ~doc:"Execution backend: auto, dense, sparse, stabilizer or exact")
  in
  let run name scheme mode shots repeat top seed backend domains trace metrics
      flight =
    if repeat < 1 then begin
      prerr_endline "--repeat must be at least 1";
      exit 1
    end;
    match benchmark_circuit name with
    | None -> prerr_endline ("unknown benchmark: " ^ name); exit 1
    | Some c -> (
        try
          let module O = Dqc.Pipeline.Options in
          let options =
            O.default |> O.with_scheme scheme |> O.with_mode mode
            |> O.with_backend_policy backend
            |> O.with_check_equivalence false
          in
          let recorder, (collector, ()) =
            with_flight flight (fun () ->
                Obs.with_collector (fun () ->
                    for k = 0 to repeat - 1 do
                      let out = Dqc.Pipeline.compile ~options c in
                      let nd = List.length out.data_bit in
                      let measures =
                        List.mapi
                          (fun i (_, phys) -> (phys, nd + i))
                          out.answer_phys
                      in
                      ignore
                        (Sim.Backend.run_measured ~policy:backend
                           ~seed:(seed + k) ?domains ~shots ~measures
                           out.circuit)
                    done))
          in
          Printf.printf
            "profile: %s (%s), %d repetitions x %d shots\n\n" name
            (Dqc.Toffoli_scheme.to_string scheme)
            repeat shots;
          print_string (Report.Obs_report.profile_summary ~top collector);
          export_telemetry ?trace ?metrics ?flight:recorder collector
        with
        | Sim.Stabilizer.Unsupported msg -> prerr_endline msg; exit 1
        | Dqc.Transform.Not_transformable msg -> exit_not_transformable msg
        | Dqc.Interaction.Cyclic qs -> exit_not_transformable (cyclic_reason qs)
        | Invalid_argument msg -> prerr_endline msg; exit 1)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a benchmark N times with telemetry on and print the latency \
          distributions (p50/p90/p99/p99.9 per pass, backend, shot and \
          kernel-op class) plus the top-K hottest spans")
    Term.(
      const run $ bench $ scheme_arg $ mode_arg $ shots $ repeat $ top $ seed
      $ backend $ domains_arg $ trace_arg $ metrics_arg $ flight_arg)

(* The circuit in an OpenQASM 3 file given with --file.  A missing,
   unreadable or malformed file is bad input: print why and exit 1. *)
let read_qasm path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      prerr_endline msg;
      exit 1
  | src -> (
      match Circuit.Qasm.parse src with
      | c -> (Filename.basename path, c)
      | exception Circuit.Qasm.Parse_error msg ->
          prerr_endline (path ^ ": " ^ msg);
          exit 1)

(* ------------------------------------------------------------------ *)
(* analyze                                                            *)

let analyze_cmd =
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~doc:"Analyze an OpenQASM 3 file instead of a benchmark")
  in
  let bench =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (see transform)")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the dqc.analyze/1 JSON resource summary instead of text")
  in
  let run bench file scheme json =
    let subject =
      match (bench, file) with
      | _, Some path ->
          Some (read_qasm path)
      | Some name, None ->
          Option.map
            (fun c -> (name, Dqc.Toffoli_scheme.prepare scheme c))
            (benchmark_circuit name)
      | None, None -> None
    in
    match subject with
    | None ->
        prerr_endline "give a benchmark name or --file <qasm>";
        exit 1
    | Some (name, c) ->
        let summary = Lint.Resource.analyze c in
        if json then
          print_endline
            (Obs.Json.to_string (Lint.Resource.to_json ~name summary))
        else begin
          let mct = scheme = Dqc.Toffoli_scheme.Direct_mct in
          print_endline (Dqc.Analysis.to_string (Dqc.Analysis.analyze ~mct c));
          print_newline ();
          print_endline (Lint.Resource.to_string summary);
          let engine = Sim.Backend.select ~shots:1024 c in
          Printf.printf "auto backend (1024 shots): %s\n"
            (Sim.Backend.engine_name engine);
          let p = Sim.Backend.predict ~shots:1024 c in
          Printf.printf "  forks %d: exact enumerates at most 2^%d leaves\n"
            p.forks p.forks;
          List.iter
            (fun (e, cost) ->
              let name = Sim.Backend.engine_name e in
              match cost with
              | Ok ms ->
                  Printf.printf "  %-10s predicted %.3f ms%s\n" name ms
                    (match (e, p.exact_engine) with
                    | `Exact, Some `Dense -> " on the dense engine"
                    | `Exact, Some `Sparse -> " on the sparse engine"
                    | `Exact, Some `Stabilizer -> " on the tableau"
                    | ( (`Exact | `Dense | `Sparse | `Hybrid | `Stabilizer),
                        (Some _ | None) ) ->
                        "")
              | Error why -> Printf.printf "  %-10s ruled out: %s\n" name why)
            p.costs;
          Printf.printf "segment engine plan: %s\n"
            (Sim.Backend.segment_plan_string p.plan)
        end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Classify a circuit's 2-qubit dynamizability and print the \
          per-segment static sparsity/resource summary (--json for \
          dqc.analyze/1)")
    Term.(const run $ bench $ file $ scheme_arg $ json)

(* ------------------------------------------------------------------ *)
(* lint                                                               *)

let lint_cmd =
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~doc:"Lint an OpenQASM 3 file instead of a benchmark")
  in
  let bench =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (see transform)")
  in
  let slots =
    Arg.(
      value & opt int 1
      & info [ "slots" ] ~doc:"Physical data qubits for the compiled output")
  in
  let traditional =
    Arg.(
      value & flag
      & info [ "traditional" ]
          ~doc:"Lint the traditional circuit instead of its compilation")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the dqc.lint/1 JSON report")
  in
  let sarif =
    Arg.(
      value & flag
      & info [ "sarif" ] ~doc:"Emit the report as a SARIF 2.1.0 document")
  in
  let dqc =
    Arg.(
      value & flag
      & info [ "dqc" ]
          ~doc:
            "Also run the DQC invariant passes on a --file or --traditional \
             subject (always on for compiled benchmarks)")
  in
  let run bench file scheme mode slots traditional json sarif dqc =
    let general_passes () =
      if dqc then Lint.dqc_passes ~max_live:slots () else Lint.default_passes
    in
    let subject =
      match (bench, file) with
      | _, Some path ->
          let name, c = read_qasm path in
          Some (name, c, general_passes ())
      | Some name, None -> (
          match benchmark_circuit name with
          | None ->
              prerr_endline ("unknown benchmark: " ^ name);
              exit 1
          | Some c ->
              if traditional then Some (name, c, general_passes ())
              else
                let module O = Dqc.Pipeline.Options in
                let options =
                  try
                    O.default |> O.with_scheme scheme |> O.with_mode mode
                    |> O.with_slots slots |> O.with_check_equivalence false
                    |> O.with_lint false
                  with Dqc.Pipeline.Invalid_options msg ->
                    prerr_endline ("invalid options: " ^ msg);
                    exit 1
                in
                let out =
                  try Dqc.Pipeline.compile ~options c with
                  | Dqc.Transform.Not_transformable msg ->
                      exit_not_transformable msg
                  | Dqc.Interaction.Cyclic qs ->
                      exit_not_transformable (cyclic_reason qs)
                in
                Some
                  ( Printf.sprintf "%s[%s]" name
                      (Dqc.Toffoli_scheme.to_string scheme),
                    out.circuit,
                    Lint.dqc_passes ~max_live:slots () ))
      | None, None -> None
    in
    match subject with
    | None ->
        prerr_endline "give a benchmark name or --file <qasm>";
        exit 1
    | Some (name, circuit, passes) ->
        let report = Lint.run ~passes circuit in
        if sarif then
          print_endline (Obs.Json.to_string (Lint.to_sarif ~name report))
        else if json then
          print_endline (Obs.Json.to_string (Lint.to_json ~name report))
        else begin
          Printf.printf "%s: %s\n" name (Lint.summary report);
          if report.Lint.diagnostics <> [] then
            print_string (Lint.report_to_string report)
        end;
        exit (if Lint.clean report then 0 else 1)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static circuit linter (abstract-interpretation passes + \
          DQC invariants); non-zero exit on error diagnostics")
    Term.(
      const run $ bench $ file $ scheme_arg $ mode_arg $ slots $ traditional
      $ json $ sarif $ dqc)

(* ------------------------------------------------------------------ *)
(* verify                                                             *)

(* The verify path drives prepare/transform directly (no pipeline), so
   mirror the pass manager's pass.end snapshots in the flight ring —
   a --corrupt dump then shows the certifier verdict preceded by the
   circuit shapes it judged. *)
let verify_flight_snapshot pass c =
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"pass.end"
      [
        ("pass", Obs.Json.String pass);
        ("pass_kind", Obs.Json.String "transform");
        ("qubits", Obs.Json.Int (Circuit.Circ.num_qubits c));
        ("gates", Obs.Json.Int (Circuit.Metrics.gate_count c));
        ("depth", Obs.Json.Int (Circuit.Metrics.dynamic_depth c));
      ]

let verify_cmd =
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~doc:"Certify an OpenQASM 3 file instead of a benchmark")
  in
  let bench =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (see transform)")
  in
  let json =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Emit the dqc.verify/1 JSON verdict")
  in
  let corrupt =
    Arg.(
      value & flag
      & info [ "corrupt" ]
          ~doc:
            "Fault-inject the compiled circuit (flip the qubit under its \
             first measurement) before certifying.  The verdict is \
             Refuted (exit 2) when the schedule has no violations and \
             the flip changes the outcome distribution, as on DJ_XOR \
             under dynamic-1.  It is still proved (exit 0) when the flip \
             leaves the distribution unchanged (a uniform data bit, as \
             on the 2-input DJ oracles) or when violations put the \
             certificate at dynamics scope, whose replay includes the \
             flip.")
  in
  let run bench file scheme mode json corrupt flight =
    let subject =
      match (bench, file) with
      | _, Some path ->
          Some (read_qasm path)
      | Some name, None -> (
          match benchmark_circuit name with
          | None ->
              prerr_endline ("unknown benchmark: " ^ name);
              exit 1
          | Some c -> Some (name, c))
      | None, None -> None
    in
    match subject with
    | None ->
        prerr_endline "give a benchmark name or --file <qasm>";
        exit 1
    | Some (name, traditional) -> (
        try
          let recorder, (r, verdict) =
            with_flight flight (fun () ->
                let prepared = Dqc.Toffoli_scheme.prepare scheme traditional in
                verify_flight_snapshot "prepare" prepared;
                let mct = scheme = Dqc.Toffoli_scheme.Direct_mct in
                let r = Dqc.Transform.transform ~mode ~mct prepared in
                verify_flight_snapshot "transform" r.Dqc.Transform.circuit;
                let r =
                  if corrupt then begin
                    let r =
                      {
                        r with
                        Dqc.Transform.circuit = Dqc.Certifier.corrupt r.circuit;
                      }
                    in
                    verify_flight_snapshot "corrupt" r.Dqc.Transform.circuit;
                    r
                  end
                  else r
                in
                (r, Dqc.Certifier.certify traditional r))
          in
          Option.iter
            (fun (path, rec_) ->
              Obs.Flight.write ~path rec_;
              (* stderr: --json owns stdout *)
              Printf.eprintf "flight record written to %s\n" path)
            recorder;
          let module C = Verify.Certify in
          let cex_json (cex : C.counterexample) =
            Obs.Json.Obj
              [
                ( "bits",
                  Obs.Json.List
                    (List.map
                       (fun (b, v) ->
                         Obs.Json.Obj
                           [ ("bit", Obs.Json.Int b); ("value", Obs.Json.Bool v) ])
                       cex.C.bits) );
                ("p_left", Obs.Json.Float cex.C.p_left);
                ("p_right", Obs.Json.Float cex.C.p_right);
                ("detail", Obs.Json.String cex.C.detail);
              ]
          in
          if json then
            print_endline
              (Obs.Json.to_string
                 (Obs.Json.Obj
                    ([
                       ("schema", Obs.Json.String "dqc.verify/1");
                       ("name", Obs.Json.String name);
                       ( "scheme",
                         Obs.Json.String (Dqc.Toffoli_scheme.to_string scheme)
                       );
                       ( "mode",
                         Obs.Json.String
                           (match mode with
                           | `Algorithm1 -> "algorithm1"
                           | `Sound -> "sound") );
                       ("corrupted", Obs.Json.Bool corrupt);
                       ( "violations",
                         Obs.Json.Int (List.length r.Dqc.Transform.violations)
                       );
                       ( "verdict",
                         Obs.Json.String
                           (match verdict with
                           | C.Proved _ -> "proved"
                           | C.Refuted _ -> "refuted"
                           | C.Unknown _ -> "unknown") );
                     ]
                    @ (match verdict with
                      | C.Proved p ->
                          [
                            ( "scope",
                              Obs.Json.String (C.scope_to_string p.C.scope) );
                            ("path_vars", Obs.Json.Int p.C.path_vars);
                            ("reductions", Obs.Json.Int p.C.reductions);
                          ]
                          @
                          (match p.C.schedule_cex with
                          | Some cex -> [ ("schedule_cex", cex_json cex) ]
                          | None -> [])
                      | C.Refuted cex -> [ ("counterexample", cex_json cex) ]
                      | C.Unknown why ->
                          [ ("reason", Obs.Json.String why) ]))))
          else
            Printf.printf "%s (%s%s): %s\n" name
              (Dqc.Toffoli_scheme.to_string scheme)
              (if corrupt then ", corrupted" else "")
              (C.verdict_to_string verdict);
          exit
            (match verdict with
            | C.Proved _ -> 0
            | C.Unknown _ -> 1
            | C.Refuted _ -> 2)
        with
        | Dqc.Transform.Not_transformable msg -> exit_not_transformable msg
        | Dqc.Interaction.Cyclic qs -> exit_not_transformable (cyclic_reason qs)
        | Invalid_argument msg ->
            prerr_endline msg;
            exit 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Symbolically certify traditional = DQC equivalence (no \
          simulation); exit 0 proved, 1 unknown, 2 refuted")
    Term.(
      const run $ bench $ file $ scheme_arg $ mode_arg $ json $ corrupt
      $ flight_arg)

(* ------------------------------------------------------------------ *)
(* qpe                                                                *)

let qpe_cmd =
  let phase =
    Arg.(value & opt float 0.3 & info [ "phase" ] ~doc:"Phase to estimate")
  in
  let bits =
    Arg.(value & opt int 4 & info [ "bits" ] ~doc:"Precision bits")
  in
  let run phase bits =
    match
      ( Algorithms.Qpe.distribution `Traditional ~bits ~phase,
        Algorithms.Qpe.distribution `Iterative ~bits ~phase )
    with
    | exception Invalid_argument msg -> prerr_endline msg; exit 1
    | dt, di ->
        let best = Algorithms.Qpe.best_estimate ~bits ~phase in
        Printf.printf
          "phase %.6f, %d bits: best estimate %d (%.6f)\n\
           P[best]: traditional %.4f, iterative (2 qubits) %.4f, TV %.2e\n"
          phase bits best
          (float_of_int best /. float_of_int (1 lsl bits))
          (Sim.Dist.prob dt best) (Sim.Dist.prob di best)
          (Sim.Dist.tv_distance dt di);
        Circuit.Draw.print (Algorithms.Qpe.iterative ~bits ~phase)
  in
  Cmd.v
    (Cmd.info "qpe" ~doc:"Run iterative (2-qubit) quantum phase estimation")
    Term.(const run $ phase $ bits)

(* ------------------------------------------------------------------ *)
(* slots                                                              *)

let slots_cmd =
  let run name scheme =
    match benchmark_circuit name with
    | None -> prerr_endline ("unknown benchmark: " ^ name); exit 1
    | Some c ->
        let prepared = Dqc.Toffoli_scheme.prepare scheme c in
        (match Dqc.Transform.min_exact_slots prepared with
        | Some k ->
            let m = Dqc.Transform.transform ~mode:`Sound ~slots:k prepared in
            Printf.printf
              "%s (%s): provably exact from %d data slot(s) — %d qubits total \
               (traditional: %d), %d gates\n"
              name
              (Dqc.Toffoli_scheme.to_string scheme)
              k
              (Circuit.Circ.num_qubits m.circuit)
              (Circuit.Circ.num_qubits c)
              (Circuit.Metrics.gate_count m.circuit)
        | None -> Printf.printf "%s: no certified width found\n" name)
  in
  Cmd.v
    (Cmd.info "slots"
       ~doc:"Find the smallest multi-slot width with a provably exact DQC")
    Term.(const run $ benchmark_arg $ scheme_arg)

(* ------------------------------------------------------------------ *)
(* passes                                                             *)

let passes_cmd =
  let run () =
    List.iter
      (fun (p : Dqc.Pass.t) ->
        Printf.printf "%-14s %-10s %s\n" p.Dqc.Pass.name
          (Dqc.Pass.kind_to_string p.Dqc.Pass.kind)
          p.Dqc.Pass.doc)
      (Dqc.Pipeline.registered_passes ())
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"List the built-in compilation passes (name, kind, summary)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* reuse                                                              *)

let reuse_cmd =
  let bench =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK"
          ~doc:
            "Measured benchmark to rewire (GROVER_<n>, QPE_<bits>, \
             SIMON_<secret>, ADDER_<n>, or any transform benchmark). \
             Without it, run the whole reuse suite")
  in
  let run bench scheme =
    match bench with
    | Some name -> (
        match benchmark_circuit name with
        | None -> prerr_endline ("unknown benchmark: " ^ name); exit 1
        | Some c ->
            let s =
              match algorithm_circuit name with
              | Some _ -> scheme
              | None -> Dqc.Toffoli_scheme.Traditional
            in
            let options =
              Dqc.Pipeline.Options.(
                default |> with_reuse true |> with_scheme s)
            in
            let out = Dqc.Pipeline.compile ~options c in
            (match out.Dqc.Pipeline.reuse with
            | Some r -> print_endline (Dqc.Reuse.report_to_string r)
            | None -> ());
            List.iter
              (fun (k, v) -> Printf.printf "%s: %s\n" k v)
              out.Dqc.Pipeline.notes;
            exit (if out.Dqc.Pipeline.certified then 0 else 1))
    | None -> print_string (Report.Experiments.reuse_report ())
  in
  Cmd.v
    (Cmd.info "reuse"
       ~doc:
         "Run the causal-cone qubit-reuse pass; every rewiring is proved \
          by the path-sum channel certifier")
    Term.(const run $ bench $ scheme_arg)

(* ------------------------------------------------------------------ *)
(* optimize                                                           *)

let optimize_cmd =
  let bench =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK"
          ~doc:
            "Optimize one benchmark (BV_<bits>, a DJ oracle, or a measured \
             algorithm circuit like GROVER_3).  Without it the whole corpus \
             is run.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the dqc.optimize/1 JSON report")
  in
  let row_json (r : Report.Experiments.optimize_row) =
    Obs.Json.Obj
      [
        ("benchmark", Obs.Json.String r.Report.Experiments.name);
        ("scheme", Obs.Json.String r.Report.Experiments.scheme);
        ("gates_before", Obs.Json.Int r.Report.Experiments.gates_before);
        ("gates_after", Obs.Json.Int r.Report.Experiments.gates_after);
        ("depth_before", Obs.Json.Int r.Report.Experiments.depth_before);
        ("depth_after", Obs.Json.Int r.Report.Experiments.depth_after);
        ("measures_folded", Obs.Json.Int r.Report.Experiments.folded);
        ("resets_removed", Obs.Json.Int r.Report.Experiments.resets_removed);
        ("uncomputes_removed", Obs.Json.Int r.Report.Experiments.uncomputes);
        ("sweeps", Obs.Json.Int r.Report.Experiments.sweeps);
        ("proved", Obs.Json.Bool r.Report.Experiments.proved);
      ]
  in
  let run bench scheme json =
    let rows =
      match bench with
      | Some name -> (
          match benchmark_circuit name with
          | None ->
              prerr_endline ("unknown benchmark: " ^ name);
              exit 1
          | Some c ->
              let scheme_label, circuit =
                match algorithm_circuit name with
                | Some _ -> ("measured", c)
                | None ->
                    let r = Dqc.Toffoli_scheme.transform scheme c in
                    ( Dqc.Toffoli_scheme.to_string scheme,
                      Decompose.Pass.expand_cv r.Dqc.Transform.circuit )
              in
              [
                Report.Experiments.optimize_entry ~name ~scheme:scheme_label
                  circuit;
              ])
      | None -> Report.Experiments.optimize_rows ()
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("schema", Obs.Json.String "dqc.optimize/1");
                ("rows", Obs.Json.List (List.map row_json rows));
              ]))
    else begin
      (match bench with
      | Some _ ->
          List.iter
            (fun (r : Report.Experiments.optimize_row) ->
              Printf.printf
                "%s (%s): gates %d -> %d, depth %d -> %d\n\
                 measures folded: %d, resets removed: %d, uncomputes \
                 cancelled: %d (%d sweep%s, %s)\n"
                r.Report.Experiments.name r.Report.Experiments.scheme
                r.Report.Experiments.gates_before
                r.Report.Experiments.gates_after
                r.Report.Experiments.depth_before
                r.Report.Experiments.depth_after r.Report.Experiments.folded
                r.Report.Experiments.resets_removed
                r.Report.Experiments.uncomputes r.Report.Experiments.sweeps
                (if r.Report.Experiments.sweeps = 1 then "" else "s")
                (if r.Report.Experiments.proved then "all rewrites proved"
                 else "some sweep reverted"))
            rows
      | None -> print_string (Report.Experiments.optimize_report ()));
      flush stdout
    end;
    exit
      (if
         List.for_all
           (fun (r : Report.Experiments.optimize_row) ->
             r.Report.Experiments.proved)
           rows
       then 0
       else 1)
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Run the certified optimizer (constant-measurement folding, \
          observability dead-code elimination, affine-fact rewrites); every \
          accepted rewrite is proved by the path-sum channel certifier")
    Term.(const run $ bench $ scheme_arg $ json)

(* ------------------------------------------------------------------ *)
(* simon                                                              *)

let simon_cmd =
  let secret =
    Arg.(value & opt string "1011" & info [ "secret" ] ~doc:"Hidden shift")
  in
  let run secret =
    let n = String.length secret in
    match Algorithms.Simon.recover_secret ~dynamic:true secret with
    | exception Invalid_argument msg -> prerr_endline msg; exit 1
    | Some found ->
        Printf.printf
          "Simon on %d+1 qubits (traditionally %d): recovered %s (%s)\n"
          n (2 * n)
          (Sim.Bits.to_string ~width:n found)
          (if found = Sim.Bits.of_string secret then "correct" else "WRONG")
    | None -> print_endline "recovery did not converge"
  in
  Cmd.v
    (Cmd.info "simon" ~doc:"Run Simon's algorithm on the dynamic realization")
    Term.(const run $ secret)

(* ------------------------------------------------------------------ *)
(* grover                                                             *)

let grover_cmd =
  let n = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of qubits") in
  let marked =
    Arg.(value & opt int 5 & info [ "marked" ] ~doc:"Marked basis state")
  in
  let run n marked =
    match Algorithms.Grover.success_probability ~n ~marked with
    | exception Invalid_argument msg -> prerr_endline msg; exit 1
    | p ->
        Printf.printf
          "Grover n=%d marked=%d: success probability %.4f (%d iterations)\n"
          n marked p
          (Algorithms.Grover.optimal_iterations n)
  in
  Cmd.v (Cmd.info "grover" ~doc:"Run the Grover extension example")
    Term.(const run $ n $ marked)

let () =
  let info =
    Cmd.info "dqc_cli" ~version:"1.0.0"
      ~doc:"Dynamic quantum circuit transformation for Toffoli networks"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            tables_cmd;
            fig7_cmd;
            equivalence_cmd;
            mct_cmd;
            sparsity_cmd;
            transform_cmd;
            simulate_cmd;
            stats_cmd;
            profile_cmd;
            analyze_cmd;
            lint_cmd;
            verify_cmd;
            passes_cmd;
            optimize_cmd;
            reuse_cmd;
            qpe_cmd;
            simon_cmd;
            slots_cmd;
            grover_cmd;
          ]))
