(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation and times the implementation.

   Usage: main.exe [TARGET] (default: all), with TARGET one of
   - table1, table2, fig7, equivalence, mct, routing, duration, scale,
     slots, reuse, sparsity, ablation: the paper's tables and figure and
     the extension studies, printed as tables;
   - backend: the execution-backend study, which exits non-zero when
     the dense configurations or the instrumented run disagree;
   - gate: the timing gate (analyzer overhead, Auto against forced
     dense on the AND-7 ladder, against forced sparse on the hybrid
     shape and against the best forced engine on the wide-sim shapes
     and a BV paper job),
     exiting non-zero and naming any row over its bound;
   - calibrate: the cost model's constants, printed as the source of
     lib/sim/calibration.ml;
   - perf [--against base.json] [...]: the shared workloads sampled
     into percentile histograms; with --against it exits non-zero when
     p50/p99 regress beyond the gate thresholds;
   - all: every study and backend (not gate, calibrate or perf). *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '#')

(* ------------------------------------------------------------------ *)
(* Experiment reproduction                                            *)

let run_table1 () =
  section "E1 / Table I";
  print_string (Report.Experiments.table1_report ())

let run_table2 () =
  section "E2 / Table II";
  print_string (Report.Experiments.table2_report ())

let run_fig7 () =
  section "E4 / Fig 7";
  print_string (Report.Experiments.fig7_report ())

let run_equivalence () =
  section "E3 / Functional equivalence";
  print_string (Report.Experiments.equivalence_report ())

let run_mct () =
  section "E6 / Future work: dynamic multiple-control Toffoli";
  print_string (Report.Experiments.mct_report ())

let run_routing () =
  section "E7 / Routing study (extension)";
  print_string (Report.Experiments.routing_report ())

let run_duration () =
  section "E8 / Wall-clock study (extension)";
  print_string (Report.Experiments.duration_report ())

let run_scale () =
  section "E9 / Scalability study (extension)";
  print_string (Report.Experiments.scale_report ())

let run_slots () =
  section "E11 / Multi-slot frontier (extension)";
  print_string (Report.Experiments.slots_report ())

let run_reuse () =
  section "E14 / Causal-cone qubit reuse (extension)";
  print_string (Report.Experiments.reuse_report ())

let run_sparsity () =
  section "E15 / Static sparsity bounds vs measured (extension)";
  print_string (Report.Experiments.sparsity_report ())

(* Ablation: design choices DESIGN.md calls out — ancilla sharing
   policy (Lemma 1) and the peephole cleanup. *)
let run_ablation () =
  section "Ablation: ancilla sharing (Lemma 1) and peephole cleanup";
  let rows =
    List.concat_map
      (fun (o : Algorithms.Oracle.t) ->
        let dj = Algorithms.Dj.circuit o in
        let variant label scheme =
          let r = Dqc.Toffoli_scheme.transform scheme dj in
          let expanded = Decompose.Pass.expand_cv r.Dqc.Transform.circuit in
          let optimized = Decompose.Peephole.cancel_inverses expanded in
          [
            o.name;
            label;
            string_of_int (Circuit.Circ.num_qubits r.circuit);
            string_of_int (List.length r.iteration_order);
            string_of_int (Circuit.Metrics.gate_count expanded);
            string_of_int (Circuit.Metrics.gate_count optimized);
            Printf.sprintf "%.4f" (Dqc.Equivalence.tv_distance dj r);
          ]
        in
        [
          variant "dyn2 fresh" (Dqc.Toffoli_scheme.Dynamic_2_shared `Fresh);
          variant "dyn2 per-target" Dqc.Toffoli_scheme.Dynamic_2;
          variant "dyn2 global" (Dqc.Toffoli_scheme.Dynamic_2_shared `Global);
        ])
      Algorithms.Dj_toffoli.oracles
  in
  print_string
    (Report.Table.render
       ~headers:
         [ "Benchmark"; "variant"; "qubits"; "iters"; "gates"; "peephole"; "TV" ]
       ~rows ())

(* ------------------------------------------------------------------ *)
(* Execution-backend study: times Backend.run's walk of the outcome tree
   (forced dense on one and on all domains) and the auto-selected
   backend against the per-shot replay the walk replaced
   (Testkit.replay_histogram, dense, one domain), on 4096 shots of the
   10-qubit Table II DJ family head, and exits non-zero unless every
   dense configuration (and the one run under the telemetry collector)
   samples the replay's histogram. *)

let obs_json_path = "BENCH_obs.json"

(* The Table II AND family pushed to 9 data qubits (Mct_bench stops at
   8): one C^9X oracle, 10 qubits total with the answer qubit.  Shared
   by the backend study and the lint-throughput group. *)
let and_9 =
  let truth =
    Algorithms.Boolean_fun.of_fun ~arity:9 (fun k -> k = (1 lsl 9) - 1)
  in
  Algorithms.Oracle.make ~name:"AND_9" ~arity:9 ~truth
    [
      Circuit.Instruction.Unitary
        (Circuit.Instruction.app
           ~controls:(List.init 9 (fun v -> v))
           Circuit.Gate.X 9);
    ]

let dense_engine = (module Sim.Statevector.Dense_engine : Sim.Engine.Core)

let run_backend () =
  section "E12 / Execution backends: per-shot replay vs outcome-tree walk";
  let dj = Algorithms.Dj.circuit and_9 in
  let plan = Sim.Measurement_plan.measure_all in
  let shots = 4096 in
  let seed = 0xBACC in
  let domains = Sim.Parallel.recommended_domains () in
  Printf.printf
    "workload: %d shots of DJ(AND_9) — %d qubits, %d gates — measured on all \
     qubits\nrecommended domains on this machine: %d\n\n"
    shots
    (Circuit.Circ.num_qubits dj)
    (Circuit.Metrics.gate_count dj)
    domains;
  let time f =
    let t0 = Unix.gettimeofday () in
    let h = f () in
    (h, Unix.gettimeofday () -. t0)
  in
  let dense = Sim.Backend.Statevector_dense in
  let program =
    Sim.Program.compile (Sim.Measurement_plan.instrument plan dj)
  in
  let h_replay, t_replay =
    time (fun () -> Testkit.replay_histogram dense_engine ~seed ~shots program)
  in
  let h_walk, t_walk =
    time (fun () ->
        Sim.Backend.run ~policy:dense ~seed ~domains:1 ~plan ~shots dj)
  in
  let h_par, t_par =
    time (fun () -> Sim.Backend.run ~policy:dense ~seed ~plan ~shots dj)
  in
  let h_auto, t_auto = time (fun () -> Sim.Backend.run ~seed ~plan ~shots dj) in
  let line label t =
    Printf.printf "  %-46s %9.1f ms   %5.2fx vs replay\n" label (t *. 1000.)
      (t_replay /. t)
  in
  line "per-shot replay, dense, 1 domain" t_replay;
  line "Backend.run dense walk, 1 domain" t_walk;
  line (Printf.sprintf "Backend.run dense walk, %d domain(s)" domains) t_par;
  line "Backend.run auto (exact-branch alias sampler)" t_auto;
  let same a b = Sim.Runner.to_list a = Sim.Runner.to_list b in
  let deterministic =
    List.for_all (same h_replay)
      [
        h_walk;
        h_par;
        Sim.Backend.run ~policy:dense ~seed ~domains:4 ~plan ~shots dj;
      ]
  in
  Printf.printf
    "\ndeterminism: dense walk histograms on 1/%d/4 domains identical to the \
     per-shot replay: %b\n"
    domains deterministic;
  Printf.printf "replay total %d shots, parallel total %d, auto total %d\n"
    (Sim.Runner.shots h_replay) (Sim.Runner.shots h_par)
    (Sim.Runner.shots h_auto);
  (* One full-size instrumented run of the one-domain walk: checks the
     collector does not perturb the sampled histogram and writes its
     metrics to BENCH_obs.json. *)
  let collector, (h_obs, _) =
    Obs.with_collector (fun () ->
        time (fun () ->
            Sim.Backend.run ~policy:dense ~seed ~domains:1 ~plan ~shots dj))
  in
  (* Telemetry overhead against the <2% budget (docs/OBSERVABILITY.md).
     Wall-clock A/B comparison is hopeless here: back-to-back runs of
     the same binary drift by 10-25% under CPU steal on a shared host,
     far more than the instrumentation costs.  So measure *process CPU
     time* (Obs.Clock.now_cpu_ns — steal never inflates it), run
     interleaved pairs with the order alternating round to round, with
     a full major GC before every sample (a run allocates the walk's
     statevector copies, so inherited heap state otherwise dominates
     the per-sample CPU), and sample in plain/instrumented/plain
     *triples*: each instrumented run is compared to the mean of the
     two plain runs flanking it, which cancels not just a shared
     regime (as a pair would) but any *linear* drift across the
     triple — the component that dominates pair-ratio variance when a
     frequency ramp lands mid-pair.  The median over triples then
     drops the ones split by a step change.  (A best-of-N comparison —
     the perf gate's trick — is *worse* here: with tens of samples per
     arm instead of the gate's thousands, the deep sparse lower tail
     makes the min itself high-variance.)  The measurement runs the
     reference workload itself: telemetry cost is a fixed per-run
     component (buffer allocation, the end-of-run flush and its GC
     debt) plus a small sampled per-run component, so a scaled-down
     shot count would overweigh the fixed part and measure a workload
     the budget is not stated against. *)
  let overhead_shots = shots in
  let wanted_triples = 25 in
  let max_triples = 75 in
  (* a triple is only admitted when its two plain runs agree this
     closely: flanks that disagree mean a co-tenant evicted our caches
     or the host stepped frequency mid-triple, and the instrumented
     run in the middle absorbed an unknowable share of it *)
  let flank_tolerance = 0.05 in
  let run_once () =
    Gc.full_major ();
    let t0 = Obs.Clock.now_cpu_ns () in
    let h =
      Sim.Backend.run ~policy:dense ~seed ~domains:1 ~plan
        ~shots:overhead_shots dj
    in
    (h, Int64.to_float (Int64.sub (Obs.Clock.now_cpu_ns ()) t0) /. 1e9)
  in
  let t_plain = ref [] and ratios = ref [] in
  let attempts = ref 0 in
  while List.length !ratios < wanted_triples && !attempts < max_triples do
    incr attempts;
    let _, t_before = run_once () in
    let _, (_, t_obs) = Obs.with_collector run_once in
    let _, t_after = run_once () in
    if
      Float.abs (t_after -. t_before) /. Float.min t_before t_after
      <= flank_tolerance
    then begin
      let plain = (t_before +. t_after) /. 2. in
      t_plain := plain :: !t_plain;
      ratios := (t_obs /. plain) :: !ratios
    end
  done;
  (* total contention fallback: never divide by an empty sample *)
  if !ratios = [] then begin
    let _, t_before = run_once () in
    let _, (_, t_obs) = Obs.with_collector run_once in
    t_plain := [ t_before ];
    ratios := [ t_obs /. t_before ]
  end;
  let median l =
    let s = Array.of_list l in
    Array.sort compare s;
    s.(Array.length s / 2)
  in
  let n_clean = List.length !ratios in
  let r_med = median !ratios in
  let unperturbed = same h_obs h_replay in
  Printf.printf
    "\ntelemetry overhead (one-domain walk, collector installed): \
     %+.2f%% (median of %d regime-stable plain/instrumented/plain \
     CPU-time triples of %d sampled, at %d shots, ~%.1f ms per run); \
     histograms identical: %b\n"
    (100. *. (r_med -. 1.))
    n_clean !attempts overhead_shots
    (median !t_plain *. 1000.)
    unperturbed;
  Obs.Metrics_json.write ~path:obs_json_path collector;
  Printf.printf "engine metrics written to %s\n" obs_json_path;
  if not (deterministic && unperturbed) then begin
    Printf.printf "backend: FAILED%s%s\n"
      (if deterministic then "" else " (the walk and the replay disagree)")
      (if unperturbed then "" else " (collector changed the histogram)");
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Timing gate: the four checks that are timings rather than properties
   of a result, so they live here and not in the tier-1 tests.  A row
   measures one value and passes while it stays under its bound;
   `gate` prints one line per row and exits 1 naming each failed row. *)

type gate_row = {
  row : string;
  bound : float;
  measure : unit -> float * string;  (** the value and how it was made *)
}

(* Best of [runs] (default 20) in process CPU time (ns), which CPU
   steal on a shared host cannot inflate. *)
let cpu_best ?(runs = 20) f =
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Obs.Clock.now_cpu_ns () in
    ignore (f ());
    let dt = Int64.to_float (Int64.sub (Obs.Clock.now_cpu_ns ()) t0) in
    if dt < !best then best := dt
  done;
  !best

(* The resource analyzer's walk over a trace interpreted beforehand,
   as a fraction of one pipeline compile of the same circuit: that is
   the gated fraction.  No compile pass computes the summary; Auto
   computes it once per run, interpreting the circuit first
   (Sim.Backend.resource_summary).  That cold time is reported beside
   it but tracks the interpreter, whose budget is perf's. *)
let analyze_overhead () =
  let dj = Algorithms.Dj.circuit and_9 in
  let options =
    let module O = Dqc.Pipeline.Options in
    O.default
    |> O.with_scheme Dqc.Toffoli_scheme.Dynamic_1
    |> O.with_check_equivalence false
  in
  let t_cold = cpu_best (fun () -> Sim.Backend.resource_summary dj) in
  let trace = Lint.Trace.run dj in
  let t_analyze = cpu_best (fun () -> Lint.Resource.analyze trace) in
  let t_compile = cpu_best (fun () -> Dqc.Pipeline.compile ~options dj) in
  ( t_analyze /. t_compile,
    Printf.sprintf
      "analyze %.1f us over a shared trace (%.1f us cold), compile %.1f us"
      (t_analyze /. 1e3) (t_cold /. 1e3) (t_compile /. 1e3) )

(* Wall time of one 64-shot run of the randomized AND-7 ladder under
   Auto (which plans it sparse) over one forced dense. *)
let auto_over_dense () =
  let c = Testkit.dyn2_ladder ~inputs:7 ~superposed:6 ~ones:[ 6 ] in
  let time policy =
    let t0 = Unix.gettimeofday () in
    ignore (Sim.Backend.run ?policy ~seed:3 ~shots:64 c);
    Unix.gettimeofday () -. t0
  in
  let t_auto = time None in
  let t_dense = time (Some Sim.Backend.Statevector_dense) in
  ( t_auto /. t_dense,
    Printf.sprintf "auto %.1f ms, forced dense %.1f ms" (t_auto *. 1000.)
      (t_dense *. 1000.) )

(* Hybrid's reason to exist: 16 shots of Testkit.hybrid_win (n = 10)
   on one domain under Auto, which plans it hybrid, over forced sparse,
   the faster single engine there.  Best of 3 in CPU time. *)
let hybrid_over_sparse () =
  let c = Testkit.hybrid_win ~n:10 ~layers:8 ~tail:10 in
  let time policy =
    cpu_best ~runs:3 (fun () ->
        Sim.Backend.run ?policy ~seed:3 ~domains:1 ~shots:16 c)
  in
  let t_auto = time None in
  let t_sparse = time (Some Sim.Backend.Sparse_statevector) in
  ( t_auto /. t_sparse,
    Printf.sprintf "auto %.1f ms, forced sparse %.1f ms" (t_auto /. 1e6)
      (t_sparse /. 1e6) )

(* Auto against the fastest of forced sparse, forced exact and the
   forced tableau on the Testkit mirrors of perfbench's wide-sim rows
   and one paper job (BV_1111 under dyn2, its answer qubits measured
   as [dqc_cli simulate] measures them), at their shot counts, on one
   domain, summed over the shapes: best of 3 in CPU time per run, the
   three runs of a shape taken in turns so no engine always runs on
   the heap another left.  The tableau is skipped on a shape it cannot
   run. *)
let auto_over_best_forced () =
  let all_ones k = List.init k Fun.id in
  let bv_1111_dyn2 =
    let c, measures =
      Testkit.paper_job Dqc.Toffoli_scheme.Dynamic_2
        (Algorithms.Bv.circuit "1111")
    in
    Sim.Measurement_plan.instrument (Sim.Measurement_plan.of_pairs measures) c
  in
  let shapes =
    [
      (Testkit.dyn2_ladder ~inputs:7 ~superposed:7 ~ones:[], 384);
      (Testkit.hybrid_witness ~m:8, 64);
      (Algorithms.Mct_bench.adaptive_parity 15, 2048);
      (Testkit.dyn2_ladder ~inputs:15 ~superposed:0 ~ones:(all_ones 15), 8192);
      ( Sim.Measurement_plan.instrument Sim.Measurement_plan.measure_all
          (Algorithms.Dj.circuit (Algorithms.Mct_bench.and_n 8)),
        1024 );
      (bv_1111_dyn2, 1024);
    ]
  in
  let policies =
    [
      None;
      Some Sim.Backend.Sparse_statevector;
      Some Sim.Backend.Exact_branch;
      Some Sim.Backend.Stabilizer;
    ]
  in
  let t_auto, t_best =
    List.fold_left
      (fun (auto, best) (c, shots) ->
        let t = Array.make (List.length policies) infinity in
        for _ = 1 to 3 do
          List.iteri
            (fun i policy ->
              match
                cpu_best ~runs:1 (fun () ->
                    Sim.Backend.run ?policy ~seed:3 ~domains:1 ~shots c)
              with
              | dt -> t.(i) <- Float.min t.(i) dt
              | exception Sim.Stabilizer.Unsupported _ -> ())
            policies
        done;
        let forced = Array.fold_left Float.min infinity (Array.sub t 1 3) in
        (auto +. t.(0), best +. forced))
      (0., 0.) shapes
  in
  ( t_auto /. t_best,
    Printf.sprintf "auto %.2f ms, best forced %.2f ms" (t_auto /. 1e6)
      (t_best /. 1e6) )

let gate_rows =
  [
    {
      row = "analyze/compile DJ(AND_9), CPU";
      bound = 0.05;
      measure = analyze_overhead;
    };
    {
      row = "auto/dense 64 AND-7 rladder, wall";
      bound = 1.0;
      measure = auto_over_dense;
    };
    {
      row = "auto/sparse 16 hybrid-win n10, CPU";
      bound = 1. /. 1.2;
      measure = hybrid_over_sparse;
    };
    {
      row = "auto/best-forced wide shapes, CPU";
      bound = 1.25;
      measure = auto_over_best_forced;
    };
  ]

let run_gate () =
  section "Timing gate";
  let failed =
    List.filter
      (fun g ->
        let value, how = g.measure () in
        let ok = value < g.bound in
        Printf.printf "  %-36s %-4s %.4f < %.4f  (%s)\n%!" g.row
          (if ok then "ok" else "FAIL")
          value g.bound how;
        not ok)
      gate_rows
  in
  if failed <> [] then begin
    Printf.printf "gate: FAILED %s\n"
      (String.concat ", " (List.map (fun g -> g.row) failed));
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Calibration: the constants of Backend's cost model, printed as the
   source of lib/sim/calibration.ml.  Each is the best of
   [calibration_runs] CPU-time measurements of a fixed program, with
   the work the model charges it divided out:
   - per op class: a 64-op stream on a 14-qubit state whose first 8
     qubits are in |+> (2^14 amplitudes on the dense engine, 2^8 live
     entries on the sparse one), the state's copy taken off;
   - per amplitude copied: 64 copies of states of 9 and 14 qubits
     (dense) or of 2 and 2^8 live entries (sparse), solved for the
     slope;
   - per shot: forced runs of one H gate, whose walk never splits, at
     20000 and 2000 shots, the difference over the 18000 shots;
   - per leaf: an enumeration that forks on 10 H-measure pairs of one
     qubit, less the model's tree work;
   - per handoff: both conversions of a 14-qubit basis state;
   - per alias draw: 20000 exact shots of a one-qubit circuit;
   - per draw: forced dense runs of 32 measurements of a |0> qubit,
     which every shot draws at and no walk splits on, less the same
     shots of the bare qubit, per shot and measurement;
   - the tableau's constants in its own units (see
     [calibrate_tableau]). *)

let calibration_runs = 15

let unitary g q = Circuit.Instruction.Unitary (Circuit.Instruction.app g q)
let measure q = Circuit.Instruction.Measure { qubit = q; bit = 0 }

let circuit_of n instrs =
  Circuit.Circ.create ~roles:(Array.make n Circuit.Circ.Data) ~num_bits:1 instrs

let cal_program n instrs =
  Sim.Program.compile_instructions ~num_qubits:n ~num_bits:1 instrs

let ns_best f = cpu_best ~runs:calibration_runs f

(* ns per call of [f], [reps] calls per timed sample *)
let ns_per ~reps f =
  ns_best (fun () ->
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done)
  /. float_of_int reps

(* The walk's cost per shot beside its draws: forced runs of a
   one-H-gate circuit of [qubits] qubits, which no shot splits, at two
   shot counts *)
let walk_shot_ns policy ~qubits =
  let c = circuit_of qubits [ unitary Circuit.Gate.H 0 ] in
  let run shots =
    ns_best (fun () -> Sim.Backend.run ~policy ~seed:1 ~domains:1 ~shots c)
  in
  (run 20000 -. run 2000) /. 18000.

let calibrate_engine policy (module E : Sim.Engine.S) =
  let n = 14 and b = 8 and ops = 64 in
  let dense = E.name = "dense" in
  (* the amplitudes an op touches, its post-state holding 2^(b + up) *)
  let width up = Float.ldexp 1. (if dense then n else b + up) in
  let hs k = List.init k (unitary Circuit.Gate.H) in
  let prep = E.create n ~num_bits:1 in
  E.exec ~random:Sim.Program.no_random prep (cal_program n (hs b));
  let rng = Random.State.make [| 7 |] in
  let random () = Random.State.float rng 1.0 in
  let copy_ns = ns_best (fun () -> E.copy prep) in
  let per_op instrs =
    let p = cal_program n instrs in
    (ns_best (fun () -> E.exec ~random (E.copy prep) p) -. copy_ns)
    /. float_of_int (List.length instrs)
  in
  (* a qubit outside the |+> block, so X and H act on |0> *)
  let free i = b + (i mod (n - b)) in
  let pairs f = List.concat (List.init (ops / 2) f) in
  let x =
    per_op (List.init ops (fun i -> unitary Circuit.Gate.X (free i))) /. width 0
  in
  let mix =
    per_op
      (pairs (fun i ->
           [ unitary Circuit.Gate.H (free i); unitary Circuit.Gate.H (free i) ]))
    /. width 1
  in
  let diag =
    per_op (List.init ops (fun i -> unitary Circuit.Gate.T (i mod b))) /. width 0
  in
  (* measuring the |+> qubits one by one halves the live entries each
     time: the model charges measurement j its 2^(b - j) pre-state *)
  let collapse =
    per_op (List.init b measure)
    *. float_of_int b
    /. List.fold_left ( +. ) 0. (List.init b (fun j -> width (-j)))
  in
  (* per amplitude copied: a copy of a state of 2^w units at two w *)
  let copy_of ~qubits ~prefix =
    let st = E.create qubits ~num_bits:1 in
    E.exec ~random:Sim.Program.no_random st (cal_program qubits (hs prefix));
    ns_per ~reps:64 (fun () -> E.copy st)
  in
  let (w0, t0), (w1, t1) =
    if dense then
      ( (9, copy_of ~qubits:9 ~prefix:0),
        (14, copy_of ~qubits:14 ~prefix:0) )
    else ((1, copy_of ~qubits:n ~prefix:1), (b, copy_of ~qubits:n ~prefix:b))
  in
  let copy =
    (t1 -. t0) /. (Float.ldexp 1. w1 -. Float.ldexp 1. w0)
  in
  let shot = walk_shot_ns policy ~qubits:(if dense then 9 else n) in
  (* a leaf: k forks, each H then measure of one qubit, then an X on a
     second so the measurements do not end the circuit.  Fork j runs
     its H and measure and copies its state on 2^j branches, the X
     runs on all 2^k leaves; the states hold 4 amplitudes (dense) or at
     most 2 entries (sparse). *)
  let k = 10 in
  let forks =
    cal_program 2
      (List.concat
         (List.init k (fun _ -> [ unitary Circuit.Gate.H 0; measure 0 ]))
      @ [ unitary Circuit.Gate.X 1 ])
  in
  let tree =
    ns_best (fun () ->
        Sim.Exact.program_distribution ~engine:(module E : Sim.Engine.Core)
          forks)
  in
  let leaves = Float.ldexp 1. k in
  let w = if dense then 4. else 2. in
  let leaf =
    ((tree -. ((leaves -. 1.) *. (mix +. collapse +. copy) *. w)) /. leaves)
    -. (x *. if dense then w else 1.)
  in
  { Sim.Calibration.x; mix; diag; collapse; copy; shot; leaf }

(* The tableau in its own work units: a gate passes over the 2n
   generator rows, a collapse and a copy touch n^2 bits.  The op
   classes run on a 64-qubit tableau whose first 8 qubits are in |+>
   (S stands in for the diagonal class, T being outside the gate set);
   a copy is the slope between copies of 8- and 64-qubit tableaus, a
   shot the walk's as on the statevector engines, and a leaf comes from
   the same fork tree as theirs. *)
let calibrate_tableau () =
  let module E = Sim.Stabilizer.Tableau_engine in
  let n = 64 and b = 8 and ops = 64 in
  let rows w = float_of_int (2 * w) and bits w = float_of_int (w * w) in
  let hs k = List.init k (unitary Circuit.Gate.H) in
  let prep = E.create n ~num_bits:1 in
  E.exec ~random:Sim.Program.no_random prep (cal_program n (hs b));
  let rng = Random.State.make [| 7 |] in
  let random () = Random.State.float rng 1.0 in
  let copy_ns = ns_best (fun () -> E.copy prep) in
  let per_op instrs =
    let p = cal_program n instrs in
    (ns_best (fun () -> E.exec ~random (E.copy prep) p) -. copy_ns)
    /. float_of_int (List.length instrs)
  in
  let free i = b + (i mod (n - b)) in
  let pairs f = List.concat (List.init (ops / 2) f) in
  let x =
    per_op (List.init ops (fun i -> unitary Circuit.Gate.X (free i))) /. rows n
  in
  let mix =
    per_op
      (pairs (fun i ->
           let h = unitary Circuit.Gate.H (free i) in
           [ h; h ]))
    /. rows n
  in
  let diag =
    per_op (List.init ops (fun i -> unitary Circuit.Gate.S (i mod b))) /. rows n
  in
  let collapse = per_op (List.init b measure) /. bits n in
  let copy_of w =
    let st = E.create w ~num_bits:1 in
    ns_per ~reps:64 (fun () -> E.copy st)
  in
  let w0 = 8 and w1 = n in
  let copy = (copy_of w1 -. copy_of w0) /. (bits w1 -. bits w0) in
  let shot = walk_shot_ns Sim.Backend.Stabilizer ~qubits:w0 in
  let k = 10 in
  let forks =
    cal_program 2
      (List.concat
         (List.init k (fun _ -> [ unitary Circuit.Gate.H 0; measure 0 ]))
      @ [ unitary Circuit.Gate.X 1 ])
  in
  let tree =
    ns_best (fun () ->
        Sim.Exact.program_distribution
          ~engine:(module E : Sim.Engine.Core)
          forks)
  in
  let leaves = Float.ldexp 1. k in
  let leaf =
    ((tree
     -. ((leaves -. 1.) *. ((mix *. rows 2) +. ((collapse +. copy) *. bits 2)))
     )
    /. leaves)
    -. (x *. rows 2)
  in
  { Sim.Calibration.x; mix; diag; collapse; copy; shot; leaf }

let run_calibrate () =
  let dense =
    calibrate_engine Sim.Backend.Statevector_dense
      (module Sim.Statevector.Dense_engine)
  and sparse =
    calibrate_engine Sim.Backend.Sparse_statevector
      (module Sim.Sparse.Sparse_engine)
  and tableau = calibrate_tableau () in
  (* a conversion each way of a 14-qubit basis state, per dense amplitude *)
  let handoff =
    let n = 14 in
    let d = Sim.Statevector.Dense_engine.create n ~num_bits:1 in
    let sp = Sim.Sparse.Sparse_engine.create n ~num_bits:1 in
    (ns_best (fun () -> Sim.Sparse.of_state d)
    +. ns_best (fun () -> Sim.Sparse.to_state sp))
    /. 2. /. Float.ldexp 1. n
  in
  (* a draw: 32 measurements of a |0> qubit, which every shot draws at
     and no walk splits on, against the bare qubit, per shot and
     measurement *)
  let draw =
    let k = 32 and shots = 20000 in
    let run instrs =
      ns_best (fun () ->
          Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:1
            ~domains:1 ~shots (circuit_of 1 instrs))
    in
    (run (List.init k (fun _ -> measure 0)) -. run [])
    /. float_of_int (shots * k)
  in
  (* an exact shot: a one-qubit enumeration is negligible next to 20000
     alias draws *)
  let alias =
    let shots = 20000 in
    ns_best (fun () ->
        Sim.Backend.run ~policy:Sim.Backend.Exact_branch ~seed:1 ~domains:1
          ~shots
          (circuit_of 1 [ unitary Circuit.Gate.H 0; measure 0 ]))
    /. float_of_int shots
  in
  (* an OCaml float literal *)
  let lit v =
    let s = Printf.sprintf "%.4g" v in
    if String.exists (fun ch -> ch = '.' || ch = 'e') s then s else s ^ "."
  in
  let engine name (c : Sim.Calibration.engine) =
    Printf.sprintf
      "let %s =\n\
      \  {\n\
      \    x = %s;\n\
      \    mix = %s;\n\
      \    diag = %s;\n\
      \    collapse = %s;\n\
      \    copy = %s;\n\
      \    shot = %s;\n\
      \    leaf = %s;\n\
      \  }\n"
      name (lit c.x) (lit c.mix) (lit c.diag) (lit c.collapse) (lit c.copy)
      (lit c.shot) (lit c.leaf)
  in
  print_string
    ("(* Engine costs behind Backend's Auto selection, in ns of CPU time.\n\
     \   Generated; regenerate with\n\
     \     dune exec bench/main.exe -- calibrate > lib/sim/calibration.ml\n\
     \   on a quiet machine (see the calibration section of bench/main.ml\n\
     \   for what each constant times). *)\n\n\
     type engine = {\n\
     \  x : float;  (** per amplitude an X op touches *)\n\
     \  mix : float;  (** per amplitude an H or generic 2x2 op touches *)\n\
     \  diag : float;  (** per amplitude a phase or diagonal op touches *)\n\
     \  collapse : float;  (** per amplitude a measure or reset touches *)\n\
     \  copy : float;  (** per amplitude of a state copy *)\n\
     \  shot : float;  (** per sampled shot, beside its draws and copies *)\n\
     \  leaf : float;  (** per enumerated leaf, beside its fork copies *)\n\
     }\n\n"
    ^ engine "dense" dense ^ "\n" ^ engine "sparse" sparse
    ^ "\n\
       (* the tableau's units: 2n rows per gate, n^2 bits per collapse and\n\
      \   per copy *)\n"
    ^ engine "tableau" tableau
    ^ Printf.sprintf
        "\n\
         (* per dense amplitude of one handoff between engines *)\n\
         let handoff = %s\n\n\
         (* per shot drawn from an exact distribution *)\n\
         let alias = %s\n\n\
         (* per sampled shot and measure or reset: its draw and its place in\n\
        \   the walk's partition *)\n\
         let draw = %s\n"
        (lit handoff) (lit alias) (lit draw))

(* ------------------------------------------------------------------ *)
(* Shared timing workloads                                            *)

(* Lint-throughput workloads: the full pass catalogue over the
   10-qubit DJ(AND_9) family — the traditional circuit under the
   general passes and its dynamic-1 compilation under the DQC gate
   (group "lint" in dqc.bench/2). *)
let lint_workloads =
  lazy
    (let dj = Algorithms.Dj.circuit and_9 in
     let compiled =
       let module O = Dqc.Pipeline.Options in
       let options =
         O.default
         |> O.with_scheme Dqc.Toffoli_scheme.Dynamic_1
         |> O.with_check_equivalence false
       in
       (Dqc.Pipeline.compile ~options dj).Dqc.Pipeline.circuit
     in
     [
       ("lint DJ(AND_9) traditional", dj, Lint.default_passes);
       ("lint DJ(AND_9) dyn1 dqc", compiled, Lint.dqc_passes ());
     ])

(* Static-analyzer throughput over the same family plus the
   per-segment-selection workload (group "analyze"). *)
let analyze_workloads =
  lazy
    (List.map
       (fun (name, c, _) ->
         ( "analyze " ^ String.sub name 5 (String.length name - 5),
           c ))
       (Lazy.force lint_workloads)
    @ [ ("analyze XORA_15", Algorithms.Mct_bench.adaptive_parity 15) ])

(* The shared workload registry: every entry is a named nullary
   closure, sampled by the percentile sampler behind the `perf`
   regression gate. *)
let workloads () : (string * (unit -> unit)) list =
  let bv_transform n =
    let s = String.make n '1' in
    ( Printf.sprintf "transform BV-%d" n,
      fun () -> ignore (Dqc.Transform.transform (Algorithms.Bv.circuit s)) )
  in
  let dj_transform scheme label =
    let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "CARRY") in
    let dj = Algorithms.Dj.circuit o in
    ( Printf.sprintf "transform DJ(CARRY) %s" label,
      fun () -> ignore (Dqc.Toffoli_scheme.transform scheme dj) )
  in
  let exact_dj scheme label =
    let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
    let dj = Algorithms.Dj.circuit o in
    let r = Dqc.Toffoli_scheme.transform scheme dj in
    ( Printf.sprintf "exact dist DJ(AND) %s" label,
      fun () -> ignore (Sim.Exact.register_distribution r.Dqc.Transform.circuit)
    )
  in
  let ghz_like n extra_phases =
    let roles = Array.make n Circuit.Circ.Data in
    let b = Circuit.Circ.Builder.make ~roles ~num_bits:0 () in
    for q = 0 to n - 1 do
      Circuit.Circ.Builder.h b q
    done;
    for q = 0 to n - 2 do
      Circuit.Circ.Builder.cx b q (q + 1)
    done;
    if extra_phases then
      for q = 0 to n - 1 do
        Circuit.Circ.Builder.gate b Circuit.Gate.T q;
        Circuit.Circ.Builder.gate b Circuit.Gate.S q
      done;
    Circuit.Circ.Builder.build b
  in
  let statevector n =
    let c = ghz_like n false in
    ( Printf.sprintf "statevector %d qubits" n,
      fun () ->
        let rng = Random.State.make [| 1 |] in
        ignore (Sim.Statevector.run ~rng c) )
  in
  let peephole =
    let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "CARRY") in
    let r =
      Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1
        (Algorithms.Dj.circuit o)
    in
    let expanded = Decompose.Pass.expand_cv r.Dqc.Transform.circuit in
    ( "peephole DJ(CARRY) dyn1",
      fun () -> ignore (Decompose.Peephole.cancel_inverses expanded) )
  in
  let stabilizer n =
    let s = String.make n '1' in
    let r = Dqc.Transform.transform (Algorithms.Bv.circuit s) in
    let program = Sim.Program.compile r.Dqc.Transform.circuit in
    ( Printf.sprintf "stabilizer BV-%d dyn shot" n,
      fun () ->
        let rng = Random.State.make [| 3 |] in
        ignore (Sim.Stabilizer.run ~rng program) )
  in
  let density =
    let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
    let r =
      Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2
        (Algorithms.Dj.circuit o)
    in
    ( "density DJ(AND) dyn2 (noisy, exact)",
      fun () ->
        ignore
          (Sim.Density.run ~model:Sim.Noise.default r.Dqc.Transform.circuit) )
  in
  let routing =
    let c = Algorithms.Bv.circuit (String.make 12 '1') in
    let coupling = Transpile.Coupling.line 13 in
    ("route BV-12 onto line", fun () -> ignore (Transpile.Route.run ~coupling c))
  in
  let native =
    let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "CARRY") in
    let r =
      Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2
        (Algorithms.Dj.circuit o)
    in
    ( "basis-lower DJ(CARRY) dyn2",
      fun () -> ignore (Transpile.Basis.to_native r.Dqc.Transform.circuit) )
  in
  (* compiled-program kernel study: lowering cost in isolation, the
     compiled op stream (one op per gate; the row keeps the name
     "unfused" it has in BENCH_baseline.json, from when lowering could
     merge gates) and the generic full-scan interpreter over the same
     SoA storage as the reference point *)
  let kernels =
    let n = 12 in
    let c = ghz_like n true in
    let program = Sim.Program.compile c in
    let rng () = Random.State.make [| 7 |] in
    [
      ( Printf.sprintf "kernels compile %d qubits" n,
        fun () -> ignore (Sim.Program.compile c) );
      ( Printf.sprintf "kernels unfused %d qubits" n,
        fun () -> ignore (Sim.Program.run ~rng:(rng ()) program) );
      ( Printf.sprintf "kernels reference %d qubits" n,
        fun () -> ignore (Sim.Statevector.run_reference ~rng:(rng ()) c) );
    ]
  in
  (* the walk of the outcome tree against the per-shot replay it
     replaced (the Testkit oracle), one domain, and the walk on the
     default domain count, on the Table II DJ family (dense throughout,
     so only the executor varies); and the on/off pair on the paper job
     the walk exists for, DJ(MAJ_5) under dyn1, whose 1024 shots land
     on a handful of branches.  "backend prefix" keeps the name it has
     in BENCH_baseline.json, from the prefix-cached replay it timed. *)
  let backend_engines =
    let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "CARRY") in
    let dj = Algorithms.Dj.circuit o in
    let plan = Sim.Measurement_plan.measure_all in
    let dense = Sim.Backend.Statevector_dense in
    let dj_program =
      Sim.Program.compile (Sim.Measurement_plan.instrument plan dj)
    in
    let maj5 =
      let c, measures =
        Testkit.paper_job Dqc.Toffoli_scheme.Dynamic_1
          (Algorithms.Dj.circuit (Algorithms.Mct_bench.majority_n 5))
      in
      Sim.Measurement_plan.instrument (Sim.Measurement_plan.of_pairs measures) c
    in
    let maj5_program = Sim.Program.compile maj5 in
    let replay program shots () =
      ignore
        (Testkit.replay_histogram dense_engine ~seed:Sim.Runner.default_seed
           ~shots program)
    in
    [
      ("backend replay 256 DJ(CARRY)", replay dj_program 256);
      ( "backend prefix 256 DJ(CARRY)",
        fun () ->
          ignore
            (Sim.Backend.run ~policy:dense ~domains:1 ~plan ~shots:256 dj) );
      ( "backend parallel 256 DJ(CARRY)",
        fun () -> ignore (Sim.Backend.run ~policy:dense ~plan ~shots:256 dj) );
      ( "backend walk 1024 DJ(MAJ_5) dyn1",
        fun () ->
          ignore (Sim.Backend.run ~policy:dense ~domains:1 ~shots:1024 maj5) );
      ("backend replay 1024 DJ(MAJ_5) dyn1", replay maj5_program 1024);
    ]
  in
  (* the noisy walk against the per-shot trajectories it replaced (the
     Testkit oracle), one domain each, under the default device model on
     DJ(AND)'s dyn1 paper job *)
  let noise_tests =
    let c, measures =
      Testkit.paper_job Dqc.Toffoli_scheme.Dynamic_1
        (Algorithms.Dj.circuit
           (Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND")))
    in
    let c =
      Sim.Measurement_plan.instrument (Sim.Measurement_plan.of_pairs measures) c
    in
    let model = Sim.Noise.default and seed = 0xD1CE and shots = 1024 in
    [
      ( "noise walk 1024 DJ(AND) dyn1",
        fun () ->
          ignore (Sim.Noise.run_shots ~seed ~domains:1 ~model ~shots c) );
      ( "noise replay 1024 DJ(AND) dyn1",
        fun () -> ignore (Testkit.trajectory_histogram ~seed ~model ~shots c)
      );
    ]
  in
  let lint_tests =
    List.map
      (fun (name, c, passes) -> (name, fun () -> ignore (Lint.run ~passes c)))
      (Lazy.force lint_workloads)
  in
  let analyze_tests =
    List.map
      (fun (name, c) ->
        (name, fun () -> ignore (Sim.Backend.resource_summary c)))
      (Lazy.force analyze_workloads)
  in
  (* the symbolic certifier: no simulation, so the wide instances
     (AND_12 is 13 qubits, XOR_16 is 17) cost about the same as the
     small one — the point of the group.  DJ(MAJ_5) dyn2 is the
     heaviest certification of the compile corpus, and BV_1111 the one
     whose time goes most to matching variables *)
  let verify_tests =
    let certify name c scheme label =
      let r = Dqc.Toffoli_scheme.transform scheme c in
      ( Printf.sprintf "verify %s %s" name label,
        fun () -> ignore (Dqc.Certifier.certify c r) )
    in
    let dj (oracle : Algorithms.Oracle.t) =
      certify
        (Printf.sprintf "DJ(%s)" oracle.name)
        (Algorithms.Dj.circuit oracle)
    in
    [
      dj
        (Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND"))
        Dqc.Toffoli_scheme.Dynamic_2 "dyn2";
      dj (Algorithms.Mct_bench.and_n 12) Dqc.Toffoli_scheme.Dynamic_1 "dyn1";
      dj (Algorithms.Mct_bench.xor_n 16) Dqc.Toffoli_scheme.Dynamic_1 "dyn1";
      dj (Algorithms.Mct_bench.majority_n 5) Dqc.Toffoli_scheme.Dynamic_2
        "dyn2";
      certify "BV_1111" (Algorithms.Bv.circuit "1111")
        Dqc.Toffoli_scheme.Dynamic_2 "dyn2";
    ]
  in
  (* the reuse pass in isolation: scheduling + rewiring cost, no
     certification (the gate is timed separately via reuse_rows) *)
  let reuse_tests =
    let prepared_grover =
      Dqc.Toffoli_scheme.prepare
        (Dqc.Toffoli_scheme.Dynamic_2_shared `Fresh)
        (Algorithms.Grover.measured ~n:3 ~marked:5)
    in
    List.map
      (fun (name, c) -> (name, fun () -> ignore (Dqc.Reuse.rewire c)))
      [
        ("reuse GROVER-3(fresh)", prepared_grover);
        ("reuse SIMON-1011", Algorithms.Simon.measured_circuit "1011");
        ("reuse QPE-4", Algorithms.Qpe.kitaev ~bits:4 ~phase:(3. /. 8.));
      ]
  in
  (* the certified optimizer end to end — abstract interpretation,
     the three sweeps and their channel certificates — on a dyn2
     compilation (uncompute cancellation) and a dynamic BV (measure
     folding + reset removal) *)
  let optimize_tests =
    let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "CARRY") in
    let dyn2 =
      Decompose.Pass.expand_cv
        (Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2
           (Algorithms.Dj.circuit o))
          .Dqc.Transform.circuit
    in
    let bv =
      (Dqc.Transform.transform (Algorithms.Bv.circuit "1000"))
        .Dqc.Transform.circuit
    in
    [
      ("optimize DJ(CARRY) dyn2", fun () -> ignore (Dqc.Optimize.run dyn2));
      ("optimize BV-4 dyn", fun () -> ignore (Dqc.Optimize.run bv));
    ]
  in
  (* Pipeline.compile end to end on two compile-corpus items: DJ(MAJ_5)
     under dyn1 with the optimizer, and GROVER-3 through the reuse
     flow *)
  let compile_tests =
    List.filter_map
      (fun (name, options, c) ->
        if List.mem name [ "DJ(MAJ_5) dyn1 opt"; "GROVER-3 reuse" ] then
          Some
            ( "compile " ^ name,
              fun () -> ignore (Dqc.Pipeline.compile ~options c) )
        else None)
      (Testkit.compile_corpus ())
  in
  (* the engine-selection study: the same Table-I-style dyn2 AND
     ladder forced dense vs left to Auto (which plans it sparse) — the
     headline pair — plus the hybrid mixed-sparsity witness and a
     single over-the-dense-cap sparse replay *)
  let sparse_tests =
    let rl = Testkit.dyn2_ladder ~inputs:6 ~superposed:6 ~ones:[] in
    let hw = Testkit.hybrid_witness ~m:12 in
    let wide_prog =
      Sim.Program.compile
        (Testkit.dyn2_ladder ~inputs:15 ~superposed:0
           ~ones:(List.init 15 Fun.id))
    in
    [
      ( "sparse dense 64 AND-6 rladder dyn2",
        fun () ->
          ignore
            (Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~shots:64
               rl) );
      ( "sparse auto 64 AND-6 rladder dyn2",
        fun () -> ignore (Sim.Backend.run ~shots:64 rl) );
      ( "sparse hybrid 64 witness",
        fun () -> ignore (Sim.Backend.run ~shots:64 hw) );
      ( "sparse shot AND-15 ladder dyn2",
        fun () ->
          ignore (Sim.Sparse.run ~rng:(Random.State.make [| 5 |]) wide_prog)
      );
    ]
  in
  [
    bv_transform 4;
    bv_transform 8;
    bv_transform 16;
    dj_transform Dqc.Toffoli_scheme.Dynamic_1 "dyn1";
    dj_transform Dqc.Toffoli_scheme.Dynamic_2 "dyn2";
    exact_dj Dqc.Toffoli_scheme.Dynamic_1 "dyn1";
    exact_dj Dqc.Toffoli_scheme.Dynamic_2 "dyn2";
    statevector 8;
    statevector 12;
    statevector 16;
    peephole;
    stabilizer 16;
    stabilizer 48;
    density;
    routing;
    native;
  ]
  @ kernels @ backend_engines @ noise_tests @ sparse_tests @ lint_tests
  @ analyze_tests @ verify_tests @ reuse_tests @ optimize_tests
  @ compile_tests

(* "transform BV-4" -> "transform": the leading token names the group *)
let group_of_name name =
  match String.index_opt name ' ' with
  | Some k -> String.sub name 0 k
  | None -> name

(* Best-effort git provenance for the dqc.bench/2 fields: baselines
   only make sense against a known commit and a clean tree.  Outside a
   git work tree both fields are null. *)
let git args =
  try
    let ic = Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim out)
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let bench_schema = "dqc.bench/2"

let revision_json () =
  match git "rev-parse HEAD" with
  | Some rev when rev <> "" -> Obs.Json.String rev
  | Some _ | None -> Obs.Json.Null

(* true when [git status --porcelain] lists anything *)
let dirty_json () =
  match git "status --porcelain" with
  | Some status -> Obs.Json.Bool (status <> "")
  | None -> Obs.Json.Null

(* ------------------------------------------------------------------ *)
(* Percentile sampling and the perf regression gate.

   The gate needs tail behaviour under a fixed time budget, so each
   shared workload is timed call by call into an Obs.Histogram and
   compared against a checked-in dqc.bench/2 baseline on p50 (median
   shift) and p99 (tail blowup). *)

type perf_series = {
  ps_name : string;
  ps_count : int;
  ps_mean_ns : float;
  ps_min_ns : int;
  ps_max_ns : int;
  ps_p50_ns : int;
  ps_p90_ns : int;
  ps_p99_ns : int;
}

(* One sampling round: run [fn] repeatedly for ~round_budget_ns of
   wall time (at least once), recording each call's *CPU-time*
   duration — on a shared host the wall clock charges hypervisor
   steal to whichever call it lands on, which is exactly the
   between-runs noise a regression gate must not trip on.  [slowdown]
   scales every recorded duration — the `--inject-slowdown` test hook
   that proves the gate trips without editing any kernel. *)
let sample_round ~round_budget_ns ~slowdown ~max_samples h fn =
  let started = Obs.Clock.now_ns () in
  let elapsed () = Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) started) in
  let samples = ref 0 in
  while
    !samples = 0
    || (Obs.Histogram.count h < max_samples && elapsed () < round_budget_ns)
  do
    let t0 = Obs.Clock.now_cpu_ns () in
    ignore (fn ());
    let dur = Int64.to_int (Int64.sub (Obs.Clock.now_cpu_ns ()) t0) in
    Obs.Histogram.record h (int_of_float (float_of_int dur *. slowdown));
    incr samples
  done

(* The whole suite is sampled in [rounds] interleaved passes rather
   than one contiguous block per workload: CPU frequency phases, GC
   heap evolution and scheduler noise then average over the same
   ~seconds-long window for every series, which is what makes two runs'
   medians comparable.  (Measured here, contiguous sampling drifts
   p50 by 30%+ between identical back-to-back runs; interleaving cuts
   that severalfold.) *)
let sampling_rounds = 8

let sample_workloads ~budget_ns ~slowdown named_fns =
  let max_samples = 100_000 in
  let round_budget_ns = budget_ns / sampling_rounds in
  let entries =
    List.map
      (fun (name, fn) ->
        ignore (fn ());
        (* warm-up: page in code + caches *)
        (name, fn, Obs.Histogram.create ()))
      named_fns
  in
  for _ = 1 to sampling_rounds do
    List.iter
      (fun (_, fn, h) ->
        sample_round ~round_budget_ns ~slowdown ~max_samples h fn)
      entries
  done;
  List.map
    (fun (name, _, h) ->
      {
        ps_name = name;
        ps_count = Obs.Histogram.count h;
        ps_mean_ns = Obs.Histogram.mean h;
        ps_min_ns = Obs.Histogram.min_value h;
        ps_max_ns = Obs.Histogram.max_value h;
        ps_p50_ns = Obs.Histogram.p50 h;
        ps_p90_ns = Obs.Histogram.p90 h;
        ps_p99_ns = Obs.Histogram.p99 h;
      })
    entries

let perf_series_json s =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String s.ps_name);
      ("group", Obs.Json.String (group_of_name s.ps_name));
      ("count", Obs.Json.Int s.ps_count);
      ("mean_ns", Obs.Json.Float s.ps_mean_ns);
      ("min_ns", Obs.Json.Int s.ps_min_ns);
      ("max_ns", Obs.Json.Int s.ps_max_ns);
      ("p50_ns", Obs.Json.Int s.ps_p50_ns);
      ("p90_ns", Obs.Json.Int s.ps_p90_ns);
      ("p99_ns", Obs.Json.Int s.ps_p99_ns);
    ]

let write_perf_json ~path series =
  Obs.Json.write ~path
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String bench_schema);
         ("unit", Obs.Json.String "ns/op");
         ("revision", revision_json ());
         ("dirty", dirty_json ());
         ("results", Obs.Json.List (List.map perf_series_json series));
       ]);
  Printf.printf "\npercentile results written to %s\n" path

(* Baseline lookup: name -> (min_ns, p50_ns, p90_ns, p99_ns) from a
   dqc.bench/2 document (series without percentiles are skipped). *)
let load_baseline path =
  let doc = Obs.Json.read ~path in
  (match Obs.Json.member "schema" doc with
  | Some (Obs.Json.String s) when s = bench_schema -> ()
  | Some (Obs.Json.String s) ->
      failwith
        (Printf.sprintf "baseline %s has schema %S, expected %S" path s
           bench_schema)
  | Some _ | None ->
      failwith (Printf.sprintf "baseline %s has no schema field" path));
  let results =
    match Obs.Json.member "results" doc with
    | Some (Obs.Json.List rs) -> rs
    | Some _ | None -> []
  in
  List.filter_map
    (fun r ->
      let num key = Option.bind (Obs.Json.member key r) Obs.Json.to_float_opt in
      match
        ( Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt,
          num "min_ns",
          num "p50_ns",
          num "p90_ns",
          num "p99_ns" )
      with
      | Some name, Some vmin, Some p50, Some p90, Some p99 ->
          Some (name, (vmin, p50, p90, p99))
      | _, _, _, _, _ -> None)
    results

(* Gate thresholds: median shifts beyond 10% or tails beyond 25% fail
   the build.  Series whose baseline median sits under the noise floor
   are reported but never gate — scheduler jitter dominates them. *)
let p50_threshold = 0.10
let p99_threshold = 0.25
let default_noise_floor_ns = 10_000.
let default_budget_ms = 150

(* Two invocations minutes apart land in different host frequency /
   load regimes, and a run's merged distribution is multi-modal (one
   mode per ~seconds-long regime window the interleaved rounds pass
   through): percentiles snap between modes, so per-series p50 drifts
   of 15-35% between *identical* back-to-back runs were measured here
   even on steal-free CPU time.  The per-series *minimum*, by
   contrast, is the best case over every regime either run visited —
   measured drift stays within a few percent.  The gate therefore
   leans on the floor twice:

   - common-mode drift = median min-shift across all gated series,
     factored out of every delta (a regime change moves the whole
     suite; a real regression is series-specific);
   - each percentile trip must be corroborated by the series' floor
     ([dmin] over the full p50 threshold): deterministic workloads
     don't get slower at the median without their best case moving.

   The common-mode correction is capped: a suite-wide shift beyond
   this bound is treated as a genuine global regression (a slowdown
   in a kernel everything shares looks exactly like that), which is
   also what keeps the --inject-slowdown self-test tripping: a 1.5x
   inject yields common-mode +50%, capped to +20%, leaving +25%
   residual on every series and every floor. *)
let max_common_drift = 0.20

let median_of_list = function
  | [] -> 0.
  | ds ->
      let a = Array.of_list ds in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let run_perf ~against ~slowdown ~budget_ms ~noise_floor_ns ~out () =
  section "E15 / Percentile sampling and the perf regression gate";
  if slowdown <> 1.0 then
    Printf.printf "NOTE: --inject-slowdown %.2f is scaling every sample\n"
      slowdown;
  let budget_ns = budget_ms * 1_000_000 in
  let series = sample_workloads ~budget_ns ~slowdown (workloads ()) in
  List.iter
    (fun s ->
      Printf.printf
        "%-34s %6d samples  p50 %10.1f us  p90 %10.1f us  p99 %10.1f us\n%!"
        s.ps_name s.ps_count
        (float_of_int s.ps_p50_ns /. 1e3)
        (float_of_int s.ps_p90_ns /. 1e3)
        (float_of_int s.ps_p99_ns /. 1e3))
    series;
  write_perf_json ~path:out series;
  match against with
  | None -> ()
  | Some baseline_path ->
      let baseline = load_baseline baseline_path in
      let rows =
        List.filter_map
          (fun s ->
            Option.map (fun b -> (s, b)) (List.assoc_opt s.ps_name baseline))
          series
      in
      let common =
        let drifts =
          List.filter_map
            (fun (s, (bmin, b50, _, _)) ->
              if b50 < noise_floor_ns || bmin <= 0. then None
              else Some ((float_of_int s.ps_min_ns /. bmin) -. 1.))
            rows
        in
        let med = median_of_list drifts in
        Float.max (-.max_common_drift) (Float.min max_common_drift med)
      in
      Printf.printf
        "\nregression gate vs %s (p50 +%.0f%%, p99 +%.0f%%; common-mode \
         drift %+.1f%% factored out):\n"
        baseline_path (100. *. p50_threshold) (100. *. p99_threshold)
        (100. *. common);
      let regressions = ref 0 and compared = ref 0 and skipped = ref 0 in
      List.iter
        (fun (s, (base_min, base_p50, base_p90, base_p99)) ->
          if base_p50 < noise_floor_ns then begin
            incr skipped;
            Printf.printf
              "  %-34s skipped (baseline p50 %.1f us under noise floor)\n"
              s.ps_name (base_p50 /. 1e3)
          end
          else begin
            incr compared;
            (* deltas relative to the baseline *after* removing the
               suite-wide drift factor *)
            let rel v base = (float_of_int v /. base /. (1. +. common)) -. 1. in
            let d50 = rel s.ps_p50_ns base_p50 in
            let d90 = rel s.ps_p90_ns base_p90 in
            let d99 = rel s.ps_p99_ns base_p99 in
            let dmin = if base_min > 0. then rel s.ps_min_ns base_min else 0. in
            (* Corroboration (see max_common_drift above): a percentile
               trip only gates when the series' floor moved with it —
               the statistic stable enough on this host to tell a code
               regression from the median snapping between regime
               modes.  p90 must second a p50 trip too: a genuine
               slowdown shifts the whole body of the distribution. *)
            let floor_moved = dmin > p50_threshold in
            let bad50 =
              d50 > p50_threshold && d90 > p50_threshold /. 2. && floor_moved
            in
            let bad99 = d99 > p99_threshold && d90 > p50_threshold && floor_moved in
            (* the floor alone rising past the tail threshold needs no
               second witness: best-case cost went up a quarter *)
            let bad_floor = dmin > p99_threshold in
            if bad50 || bad99 || bad_floor then begin
              incr regressions;
              Printf.printf
                "  %-34s REGRESSION  p50 %+6.1f%%%s  p90 %+6.1f%%  p99 \
                 %+6.1f%%%s  min %+6.1f%%%s\n"
                s.ps_name (100. *. d50)
                (if bad50 then "!" else " ")
                (100. *. d90) (100. *. d99)
                (if bad99 then "!" else " ")
                (100. *. dmin)
                (if bad_floor then "!" else " ")
            end
            else
              Printf.printf
                "  %-34s ok          p50 %+6.1f%%   p90 %+6.1f%%  p99 \
                 %+6.1f%%   min %+6.1f%%\n"
                s.ps_name (100. *. d50) (100. *. d90) (100. *. d99)
                (100. *. dmin)
          end)
        rows;
      Printf.printf
        "\ngate: %d series compared, %d under noise floor, %d regression(s)\n"
        !compared !skipped !regressions;
      if !regressions > 0 then exit 1

(* ------------------------------------------------------------------ *)

(* `perf [--against base.json] [--inject-slowdown F] [--budget-ms N]
   [--noise-floor-ns N] [--out path]` — flags parsed by hand since the
   bench binary doesn't link cmdliner *)
let parse_perf_args argv =
  let against = ref None in
  let slowdown = ref 1.0 in
  let budget_ms = ref default_budget_ms in
  let noise_floor_ns = ref default_noise_floor_ns in
  let out = ref "BENCH_perf.json" in
  let usage () =
    Printf.eprintf
      "usage: perf [--against baseline.json] [--inject-slowdown F] \
       [--budget-ms N] [--noise-floor-ns N] [--out path]\n";
    exit 2
  in
  let rec go k =
    if k < Array.length argv then begin
      let value () =
        if k + 1 >= Array.length argv then usage () else argv.(k + 1)
      in
      let num parse =
        match parse (value ()) with Some v -> v | None -> usage ()
      in
      (match argv.(k) with
      | "--against" -> against := Some (value ())
      | "--inject-slowdown" -> slowdown := num float_of_string_opt
      | "--budget-ms" -> budget_ms := num int_of_string_opt
      | "--noise-floor-ns" -> noise_floor_ns := num float_of_string_opt
      | "--out" -> out := value ()
      | _ -> usage ());
      go (k + 2)
    end
  in
  go 2;
  run_perf ~against:!against ~slowdown:!slowdown ~budget_ms:!budget_ms
    ~noise_floor_ns:!noise_floor_ns ~out:!out ()

let targets =
  "table1|table2|fig7|equivalence|mct|routing|duration|scale|slots|reuse|\
   sparsity|ablation|backend|gate|calibrate|perf|all"

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match what with
  | "table1" -> run_table1 ()
  | "table2" -> run_table2 ()
  | "fig7" -> run_fig7 ()
  | "equivalence" -> run_equivalence ()
  | "mct" -> run_mct ()
  | "routing" -> run_routing ()
  | "duration" -> run_duration ()
  | "scale" -> run_scale ()
  | "slots" -> run_slots ()
  | "reuse" -> run_reuse ()
  | "sparsity" -> run_sparsity ()
  | "ablation" -> run_ablation ()
  | "backend" -> run_backend ()
  | "gate" -> run_gate ()
  | "calibrate" -> run_calibrate ()
  | "perf" -> parse_perf_args Sys.argv
  | "all" ->
      run_table1 ();
      run_table2 ();
      run_fig7 ();
      run_equivalence ();
      run_mct ();
      run_routing ();
      run_duration ();
      run_scale ();
      run_slots ();
      run_reuse ();
      run_sparsity ();
      run_ablation ();
      run_backend ()
  | other ->
      Printf.eprintf "unknown target %S (expected %s)\n" other targets;
      exit 1
