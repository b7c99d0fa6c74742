(* End-to-end benchmark of the compile-and-simulate stack.

   One process runs one named workload, closed loop with a single
   client, for a fixed time and prints, as the last line of standard
   output, one JSON object {correct, attempted, failed, metrics}.  With
   [--trace 0] the metrics are the end-to-end ones, measured with
   telemetry off; with [--trace 1] they are the per-layer ones, each
   measured from here by timing calls into its layer.  README.md in
   this directory says why each workload exists and which end-to-end
   metric each layer metric should move.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Only public entry points are driven: [Pipeline.compile],
   [Options.schedule] with [Pass.init] / [Pass.run],
   [Backend.resource_summary] / [select] / [run], [Program.compile],
   [Exact] and the [Obs] collector. *)

open Circuit
module O = Dqc.Pipeline.Options
module Scheme = Dqc.Toffoli_scheme
module J = Obs.Json

let sprintf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Clocks                                                              *)

let wall = Unix.gettimeofday

(* process CPU seconds, summed over every domain *)
let cpu = Sys.time

(* words allocated so far by every domain; a promoted word counts once,
   in the minor heap *)
let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let sorted values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

(* linear interpolation between order statistics *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((r -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let median values = percentile (sorted values) 0.5

(* ------------------------------------------------------------------ *)
(* Correctness checks, run outside the timed region                   *)

type verdict = { failure : string option; gates : int; depth : int }

let compile_failure ~certified ~(lint : Lint.report option) =
  if not certified then Some "compile output not certified"
  else
    match lint with
    | None -> Some "lint gate did not run"
    | Some r when not (Lint.clean r) -> Some ("lint: " ^ Lint.summary r)
    | Some _ -> None

let output_failure (o : Dqc.Pipeline.output) =
  compile_failure ~certified:o.certified ~lint:o.lint

(* An n-shot histogram of a distribution with k outcomes lies within
   this total-variation distance of it with probability at least
   1 - 1e-9, by the L1 concentration bound
   P(|p^ - p|_1 >= e) <= 2^k exp(-n e^2 / 2). *)
let tv_bound ~outcomes ~shots =
  sqrt
    ((float_of_int outcomes *. log 2. +. log 1e9) /. (2. *. float_of_int shots))

let histogram_failure reference h =
  let shots = Sim.Runner.shots h in
  match
    List.find_opt
      (fun (o, _) -> Sim.Dist.prob reference o <= 1e-12)
      (Sim.Runner.to_list h)
  with
  | Some (o, n) ->
      Some (sprintf "%d shot(s) on outcome %d, which the reference rules out" n o)
  | None ->
      let tv = Sim.Dist.tv_distance (Sim.Runner.to_dist h) reference in
      let bound =
        tv_bound ~outcomes:(List.length (Sim.Dist.support reference)) ~shots
      in
      if tv > bound then
        Some
          (sprintf "TV %.4f from the reference, above the %d-shot bound %.4f"
             tv shots bound)
      else None

(* The dqc_cli simulate/stats layout: data bits as the DQC records
   them, then one bit per answer qubit. *)
let measures (o : Dqc.Pipeline.output) =
  let nd = List.length o.data_bit in
  List.mapi (fun k (_, phys) -> (phys, nd + k)) o.answer_phys

let with_measures pairs c =
  Sim.Measurement_plan.instrument (Sim.Measurement_plan.of_pairs pairs) c

(* ------------------------------------------------------------------ *)
(* Per-layer sums of the traced run (and of set-up, where wide-sim     *)
(* analyzes its circuits)                                              *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace sums name
    (v +. Option.value ~default:0. (Hashtbl.find_opt sums name))

let sum name = Option.value ~default:0. (Hashtbl.find_opt sums name)
let ratio num den = if sum den = 0. then 0. else sum num /. sum den

(* [timed name f] adds [f]'s wall milliseconds to [name] and counts the
   call in [name ^ ".n"]. *)
let timed name f =
  let t0 = wall () in
  let r = f () in
  add name ((wall () -. t0) *. 1000.);
  add (name ^ ".n") 1.;
  r

(* ------------------------------------------------------------------ *)
(* Workload items                                                      *)

type wide = {
  circuit : Circ.t;
  shots : int;
  reference : Sim.Dist.t;
  in_gates : int;
  in_depth : int;
}

type job =
  | Compile of O.t * Circ.t  (** compile only *)
  | Paper of O.t * Circ.t * Sim.Dist.t
      (** compile, then [paper_shots] Auto shots of the output, checked
          against the exact distribution of the set-up compile *)
  | Wide of wide  (** Auto shots of a circuit built at set-up *)

type item = { name : string; job : job }

let paper_shots = 1024

(* Shots run on one domain.  With the default (one per core) every run
   spawns a worker and every minor GC waits for it, so on a shared host
   the wall time measured the other tenants' load: whole runs moved by
   up to a third. *)
let domains = 1

(* The timed call.  It returns the check, which the caller runs after
   stopping the clock. *)
let start ~seed job : unit -> verdict =
  match job with
  | Compile (options, c) ->
      let o = Dqc.Pipeline.compile ~options c in
      fun () -> { failure = output_failure o; gates = o.gates; depth = o.depth }
  | Paper (options, c, reference) ->
      let o = Dqc.Pipeline.compile ~options c in
      let h =
        Sim.Backend.run_measured ~seed ~domains ~shots:paper_shots
          ~measures:(measures o) o.circuit
      in
      fun () ->
        let failure =
          match output_failure o with
          | None -> histogram_failure reference h
          | f -> f
        in
        { failure; gates = o.gates; depth = o.depth }
  | Wide w ->
      let h = Sim.Backend.run ~seed ~domains ~shots:w.shots w.circuit in
      fun () ->
        {
          failure = histogram_failure w.reference h;
          gates = w.in_gates;
          depth = w.in_depth;
        }

let schemes = [ ("dyn1", Scheme.Dynamic_1); ("dyn2", Scheme.Dynamic_2) ]
let dj_name (o : Algorithms.Oracle.t) = sprintf "DJ(%s)" o.name

let bv_benchmarks () =
  List.map
    (fun s -> ("BV_" ^ s, Algorithms.Bv.circuit s))
    Algorithms.Bv.paper_benchmarks

let compile_corpus () =
  let module A = Algorithms in
  let mct =
    A.Mct_bench.[ and_n 4; and_n 6; and_n 8; or_n 4; majority_n 5; xor_n 16 ]
  in
  let bv =
    List.map
      (fun (name, c) -> { name; job = Compile (O.default, c) })
      (bv_benchmarks ())
  in
  let dj =
    List.concat_map
      (fun o ->
        List.concat_map
          (fun (tag, scheme) ->
            List.map
              (fun optimize ->
                {
                  name =
                    sprintf "%s %s%s" (dj_name o) tag
                      (if optimize then " opt" else "");
                  job =
                    Compile
                      ( O.default |> O.with_scheme scheme
                        |> O.with_optimize optimize,
                        A.Dj.circuit o );
                })
              [ false; true ])
          schemes)
      (A.Dj_toffoli.oracles @ mct)
  in
  let reuse =
    List.map
      (fun (name, c) ->
        { name = name ^ " reuse"; job = Compile (O.with_reuse true O.default, c) })
      [
        ("GROVER-3", A.Grover.measured ~n:3 ~marked:5);
        ("SIMON-1011", A.Simon.measured_circuit "1011");
        ("QPE-4", A.Qpe.kitaev ~bits:4 ~phase:(3. /. 8.));
      ]
  in
  bv @ dj @ reuse

let paper_jobs () =
  let module A = Algorithms in
  let benchmarks =
    bv_benchmarks ()
    @ List.map
        (fun o -> (dj_name o, A.Dj.circuit o))
        (A.Dj_toffoli.oracles @ A.Mct_bench.suite)
  in
  List.concat_map
    (fun (name, c) ->
      List.map
        (fun (tag, scheme) ->
          let options = O.with_scheme scheme O.default in
          let o = Dqc.Pipeline.compile ~options c in
          let reference =
            Sim.Exact.measured_distribution ~measures:(measures o) o.circuit
          in
          { name = sprintf "%s %s" name tag; job = Paper (options, c, reference) })
        schemes)
    benchmarks

(* A Table-I-style AND network: inputs 0..k-1, ladder ancillas
   k..2k-3, the AND of all inputs accumulating on the last ancilla and
   measured into bit 0.  The first [superposed] inputs are H-prepared
   and measured mid-circuit into bits 1..; the rest are X-prepared, so
   the ladder itself stays in the computational basis.  The family of
   the sparse gate in bench/main.ml. *)
let and_ladder ~inputs:k ~superposed =
  let nq = (2 * k) - 1 in
  let h = min superposed k in
  let b =
    Circ.Builder.make ~roles:(Array.make nq Circ.Data) ~num_bits:(h + 1) ()
  in
  for q = 0 to h - 1 do
    Circ.Builder.h b q
  done;
  for q = h to k - 1 do
    Circ.Builder.x b q
  done;
  for q = 0 to h - 1 do
    Circ.Builder.measure b ~qubit:q ~bit:(q + 1)
  done;
  Circ.Builder.ccx b 0 1 k;
  for j = 1 to k - 2 do
    Circ.Builder.ccx b (k + j - 1) (j + 1) (k + j)
  done;
  Circ.Builder.measure b ~qubit:(nq - 1) ~bit:0;
  Circ.Builder.build b

(* Mixed sparsity: [m] qubits in uniform superposition, measured up
   front, then a basis Toffoli with measure / reset / feed-forward on
   three more.  The first segment's amplitude bound sits inside the
   dense margin and the second's far below it, so Auto plans it per
   segment.  bench/main.ml's hybrid witness has m = 12; a smaller m
   keeps the 2^m leaves of its Sim.Exact reference in memory. *)
let mixed_sparsity ~m =
  let b =
    Circ.Builder.make ~roles:(Array.make (m + 3) Circ.Data) ~num_bits:(m + 1) ()
  in
  for q = 0 to m - 1 do
    Circ.Builder.h b q
  done;
  for q = 0 to m - 1 do
    Circ.Builder.measure b ~qubit:q ~bit:(q + 1)
  done;
  Circ.Builder.x b m;
  Circ.Builder.x b (m + 1);
  Circ.Builder.ccx b m (m + 1) (m + 2);
  Circ.Builder.measure b ~qubit:(m + 2) ~bit:0;
  Circ.Builder.reset b (m + 2);
  Circ.Builder.conditioned b ~bit:0 Gate.X (m + 2);
  Circ.Builder.measure b ~qubit:(m + 2) ~bit:0;
  Circ.Builder.build b

let dyn2 = Scheme.prepare Scheme.Dynamic_2
let exact = Sim.Exact.register_distribution

(* The circuits span 9 to 43 qubits.  A dyn2-prepared ladder's
   reference comes from the ladder before the substitution, which the
   dyn2 netlist reproduces exactly on every classical bit and which
   Sim.Exact enumerates without the ancillas' factor in memory.  Shot
   counts keep every circuit's share of a pass within a few times of
   the others'. *)
let wide_sim () =
  let module A = Algorithms in
  let ladder i h = and_ladder ~inputs:i ~superposed:h in
  let dj6 =
    with_measures (List.init 6 (fun q -> (q, q)))
      (A.Dj.circuit (A.Mct_bench.and_n 6))
  in
  let dj8 =
    Sim.Measurement_plan.instrument Sim.Measurement_plan.measure_all
      (A.Dj.circuit (A.Mct_bench.and_n 8))
  in
  let xora = A.Mct_bench.adaptive_parity 15 in
  let mixed = mixed_sparsity ~m:8 in
  let dj6 = dyn2 dj6 in
  [
    ("AND-7 ladder h7 dyn2", dyn2 (ladder 7 7), exact (ladder 7 7), 384);
    ("AND-6 ladder h2 dyn2", dyn2 (ladder 6 2), exact (ladder 6 2), 64);
    ("mixed-sparsity m8 dyn2", dyn2 mixed, exact mixed, 64);
    ("XORA_15", xora, exact xora, 2048);
    (* deterministic: every input is 1, so bit 0 always reads 1 *)
    ( "AND-15 ladder dyn2",
      dyn2 (ladder 15 0),
      Sim.Dist.create ~width:1 [ (1, 1.) ],
      8192 );
    (* outside the transform, the dyn2 netlist's mid-circuit ancilla
       measurements collapse the superposed DJ inputs, so this one is
       checked against its own exact law *)
    ("DJ(AND_6) dyn2", dj6, exact dj6, 256);
    ("DJ(AND_8) measure-all", dj8, exact dj8, 1024);
  ]
  |> List.map (fun (name, circuit, reference, shots) ->
         timed "backend.analyze.ms" (fun () ->
             ignore (Sim.Backend.resource_summary circuit));
         {
           name;
           job =
             Wide
               {
                 circuit;
                 shots;
                 reference;
                 in_gates = Metrics.gate_count circuit;
                 in_depth = Metrics.dynamic_depth circuit;
               };
         })

let workloads =
  [
    ("compile-corpus", compile_corpus);
    ("paper-jobs", paper_jobs);
    ("wide-sim", wide_sim);
  ]

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

(* Whole passes over the items, each pass in an order shuffled from the
   seed, until [seconds] have passed and at least [min_ops] ops ran.
   Returns the number of passes. *)
let passes ~rng ~items ~seconds ~min_ops f =
  let t0 = wall () in
  let n = ref 0 and ops = ref 0 in
  while !ops < min_ops || wall () -. t0 < seconds do
    let order = Array.copy items in
    for i = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.iter (fun it -> f it ~seed:(Random.State.bits rng)) order;
    incr n;
    ops := !ops + Array.length order
  done;
  !n

let attempted = ref 0
let failures = ref []

let tally item v =
  incr attempted;
  Option.iter (fun r -> failures := (item.name, r) :: !failures) v.failure

let crashed e = { failure = Some (Printexc.to_string e); gates = 0; depth = 0 }

type sample = {
  ms : float;
  cpu_ms : float;
  words : float;
  heap_words : int;  (** major heap size right after the op *)
  verdict : verdict;
}

(* one end-to-end op: wall, CPU and allocation around the call only *)
let measure item ~seed =
  let w0 = wall () and c0 = cpu () and a0 = allocated () in
  let check = try Ok (start ~seed item.job) with e -> Error e in
  let w1 = wall () and c1 = cpu () and a1 = allocated () in
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  let verdict =
    match check with
    | Ok check -> ( try check () with e -> crashed e)
    | Error e -> crashed e
  in
  tally item verdict;
  {
    ms = (w1 -. w0) *. 1000.;
    cpu_ms = (c1 -. c0) *. 1000.;
    words = a1 -. a0;
    heap_words;
    verdict;
  }

(* p90 needs ten samples beyond it *)
let min_ops = 110

(* The heap peak is read over one pass in list order with the default
   seed, from the compacted heap after the first set-up: the same work
   in every run.  A seed-shuffled order moved it by a quarter from run
   to run, and paper-jobs' heap keeps growing with the jobs run, so a
   peak over the timed passes would track machine speed. *)
let heap_peak items =
  Array.fold_left
    (fun acc it -> max acc (measure it ~seed:Sim.Runner.default_seed).heap_words)
    0 items

(* Set-up is repeated and its median reported, so a change that moves
   work into set-up shows in [setup_s]. *)
let setup_repeats = 15

(* The run is cut into [setup_repeats] segments, each a fresh set-up
   and then an equal share of [seconds] of timed passes over the items
   it built.  Other tenants of a shared host slow the machine for tens
   of seconds at a time; with the set-ups spread over the run, one such
   spell moves only some of them, not the median.

   Every item runs once per pass, so the op mix is fixed.  Timings take
   each item at the 5th percentile of its times over the run's passes:
   contention only ever slows an op down, and this keeps it out of the
   figures.  Latency percentiles are then taken over the mix of those
   per-item times. *)
let end_to_end ~rng ~setup ~seconds =
  let samples = ref [] and by_item = Hashtbl.create 128 in
  let setup_times = Array.make setup_repeats 0. and heap = ref 0 in
  for k = 0 to setup_repeats - 1 do
    let t, items = setup () in
    setup_times.(k) <- t;
    (* every segment starts its timed passes from a compacted heap *)
    Gc.compact ();
    if k = 0 then heap := heap_peak items;
    ignore
      (passes ~rng ~items
         ~seconds:(seconds /. float_of_int setup_repeats)
         ~min_ops:((min_ops + setup_repeats - 1) / setup_repeats)
         (fun it ~seed ->
           let s = measure it ~seed in
           samples := s :: !samples;
           Hashtbl.replace by_item it.name
             (s :: Option.value ~default:[] (Hashtbl.find_opt by_item it.name))))
  done;
  let setup_s = median (Array.to_list setup_times) and heap_peak = !heap in
  let samples = !samples in
  let ops = float_of_int (List.length samples) in
  let total f = List.fold_left (fun acc s -> acc +. f s) 0. samples in
  let per_item f =
    Hashtbl.fold
      (fun _ ss acc -> percentile (sorted (List.map f ss)) 0.05 :: acc)
      by_item []
  in
  let mean values =
    List.fold_left ( +. ) 0. values /. float_of_int (List.length values)
  in
  let latencies = sorted (per_item (fun s -> s.ms)) in
  let ok = List.filter (fun s -> s.verdict.failure = None) samples in
  [
    ("setup_s", setup_s, "s");
    ("ops_per_s", 1000. /. mean (Array.to_list latencies), "1/s");
    ("latency_ms_p50", percentile latencies 0.5, "ms");
    ("latency_ms_p90", percentile latencies 0.9, "ms");
    ("cpu_ms_per_op", mean (per_item (fun s -> s.cpu_ms)), "ms");
    ("alloc_mwords_per_op", total (fun s -> s.words) /. ops /. 1e6, "Mwords");
    ( "heap_peak_mb",
      float_of_int (heap_peak * (Sys.word_size / 8)) /. 1e6,
      "MB" );
    ("ok_frac", float_of_int (List.length ok) /. ops, "frac");
    ( "out_gates_mean",
      total (fun s -> float_of_int s.verdict.gates) /. ops,
      "gates" );
    ( "out_depth_mean",
      total (fun s -> float_of_int s.verdict.depth) /. ops,
      "layers" );
  ]

(* ------------------------------------------------------------------ *)
(* The traced run: each layer timed from outside                      *)

let pass_groups =
  [
    "prepare";
    "transform";
    "certify";
    "equivalence";
    "expand_cv";
    "optimize";
    "reuse";
    "prune_resets";
    "reuse_certify";
    "analyze";
    "lint";
  ]

(* optimize.fold -> optimize, analyze.resources -> analyze *)
let pass_group name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Compile [c] pass by pass through the schedule [Pipeline.compile]
   runs, timing each pass.  [tamper] rewrites the context after the
   transform pass (the self-test's fault injection). *)
let replay ?(tamper = Fun.id) ~item ~options c =
  let step (ctx : Dqc.Pass.ctx) (p : Dqc.Pass.t) =
    let g = pass_group p.name in
    let t0 = wall () and a0 = allocated () in
    let next = p.run ctx in
    let ms = (wall () -. t0) *. 1000. and words = allocated () -. a0 in
    add ("pass." ^ g ^ ".ms") ms;
    add ("pass." ^ g ^ ".alloc_kwords") (words /. 1000.);
    add (sprintf "row:%s:%s" item g) ms;
    (match g with
    | "transform" ->
        add "transform.runs" 1.;
        add "transform.iterations" (float_of_int next.iterations)
    | "certify" | "reuse_certify" ->
        add "certify.runs" 1.;
        if next.certified then add "certify.proved" 1.
    | "optimize" ->
        add "optimize.removed"
          (float_of_int
             (Metrics.gate_count ctx.circuit - Metrics.gate_count next.circuit))
    | "reuse" ->
        Option.iter
          (fun r ->
            add "reuse.runs" 1.;
            add "reuse.saved" (float_of_int (Dqc.Reuse.saved r)))
          next.reuse
    | _ -> ());
    if p.name = "transform" then tamper next else next
  in
  let schedule = O.schedule options in
  add "compiles" 1.;
  add (sprintf "row:%s:n" item) 1.;
  if
    List.exists (fun (p : Dqc.Pass.t) -> pass_group p.name = "optimize") schedule
  then add "optimize.compiles" 1.;
  List.fold_left step (Dqc.Pass.init ~config:(O.config options) c) schedule

(* the replayed compile must be the one Pipeline.compile returns *)
let traced_compile ~item ~options c =
  let ctx = replay ~item ~options c in
  let o = Dqc.Pipeline.compile ~options c in
  let same =
    Circ.equal ctx.circuit o.circuit
    && ctx.certified = o.certified && ctx.data_bit = o.data_bit
    && ctx.answer_phys = o.answer_phys
  in
  if same then (o, output_failure o)
  else (o, Some "pass-by-pass replay differs from Pipeline.compile")

let engines = [ "dense"; "sparse"; "hybrid"; "stabilizer"; "exact" ]

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

(* Bytes the dense kernels move for one op over 2^n complex doubles (16
   bytes an amplitude): a unitary reads and writes the amplitudes its
   controls select (a phase only their target-1 half); measure and
   reset read the state for the probability, then read and write it to
   project.  A conditioned op counts as taken. *)
let rec op_bytes n (k : Sim.Program.kernel) =
  let amps cmask = Float.ldexp 1. (n - popcount cmask) in
  match k with
  | Kx { cmask; _ } | Kh { cmask; _ } | Ku2 { cmask; _ } | Kdiag { cmask; _ } ->
      32. *. amps cmask
  | Kphase { cmask; _ } -> 16. *. amps cmask
  | Kmeasure _ | Kreset _ -> 48. *. Float.ldexp 1. n
  | Kcond { body; _ } -> op_bytes n body

(* (bytes of the once-per-run prefix, bytes per shot: the copy of the
   cached prefix state plus the suffix) *)
let dense_bytes c =
  let p = Sim.Program.compile c in
  let n = Sim.Program.num_qubits p in
  let prefix, suffix = Sim.Program.split_prefix p in
  let total q =
    Array.fold_left (fun acc k -> acc +. op_bytes n k) 0. (Sim.Program.kernels q)
  in
  (total prefix, (32. *. Float.ldexp 1. n) +. total suffix)

let row_engine : (string, string * int) Hashtbl.t = Hashtbl.create 16

(* Decompose one Backend.run: lowering, selection, then the run, whose
   engine is read off the collector's backend.run.<engine> counter. *)
let traced_run collector ~item ~seed ~shots ?measures c =
  let target = match measures with None -> c | Some m -> with_measures m c in
  timed "program.compile.ms" (fun () -> ignore (Sim.Program.compile target));
  timed "backend.select.ms" (fun () -> ignore (Sim.Backend.select ~shots c));
  let runs () =
    List.map
      (fun e -> Obs.Collector.counter collector ("backend.run." ^ e))
      engines
  in
  let before = runs () in
  let w0 = wall () and c0 = cpu () and a0 = allocated () in
  let h =
    match measures with
    | None -> Sim.Backend.run ~seed ~domains ~shots c
    | Some measures -> Sim.Backend.run_measured ~seed ~domains ~shots ~measures c
  in
  let dt = wall () -. w0 and dcpu = cpu () -. c0 and words = allocated () -. a0 in
  let engine =
    List.fold_left2
      (fun acc (e, b) a -> if a > b then e else acc)
      "unknown"
      (List.combine engines before)
      (runs ())
  in
  let shots = float_of_int shots in
  add "backend.run.wall_s" dt;
  add "backend.run.cpu_s" dcpu;
  add "backend.run.alloc_words" words;
  add "backend.run.shots" shots;
  add (sprintf "backend.run.%s.ns" engine) (dt *. 1e9);
  add (sprintf "backend.run.%s.shots" engine) shots;
  add (sprintf "row:%s:ns" item) (dt *. 1e9);
  add (sprintf "row:%s:shots" item) shots;
  Hashtbl.replace row_engine item (engine, Circ.num_qubits target);
  if engine = "dense" then begin
    let prefix, per_shot = dense_bytes target in
    add "dense.bytes" (prefix +. (shots *. per_shot));
    add "dense.wall_s" dt
  end;
  h

let traced_op collector item ~seed =
  let verdict =
    try
      match item.job with
      | Compile (options, c) ->
          let o, failure = traced_compile ~item:item.name ~options c in
          { failure; gates = o.gates; depth = o.depth }
      | Paper (options, c, reference) ->
          let o, failure = traced_compile ~item:item.name ~options c in
          timed "backend.analyze.ms" (fun () ->
              ignore (Sim.Backend.resource_summary o.circuit));
          let h =
            traced_run collector ~item:item.name ~seed ~shots:paper_shots
              ~measures:(measures o) o.circuit
          in
          let failure =
            match failure with
            | None -> histogram_failure reference h
            | f -> f
          in
          { failure; gates = o.gates; depth = o.depth }
      | Wide w ->
          let h =
            traced_run collector ~item:item.name ~seed ~shots:w.shots w.circuit
          in
          {
            failure = histogram_failure w.reference h;
            gates = w.in_gates;
            depth = w.in_depth;
          }
    with e -> crashed e
  in
  tally item verdict

(* Host memory bandwidth: bytes read plus written per second by a blit
   of a float array far larger than the caches, best of several. *)
let copy_bytes_per_s () =
  let n = 1 lsl 22 in
  let src = Array.make n 1.0 and dst = Array.make n 0.0 in
  let trial () =
    let t0 = wall () in
    Array.blit src 0 dst 0 n;
    wall () -. t0
  in
  ignore (trial ());
  let best = List.fold_left min infinity (List.init 8 (fun _ -> trial ())) in
  16. *. float_of_int n /. best

let with_collector f =
  let collector = Obs.install () in
  Fun.protect ~finally:Obs.uninstall (fun () -> (collector, f collector))

let print_row fields =
  print_endline (J.to_string (J.Obj [ ("row", J.Obj fields) ]))

let print_rows items =
  Array.iter
    (fun it ->
      let n = sum (sprintf "row:%s:n" it.name) in
      if n > 0. then
        print_row
          [
            ("item", J.String it.name);
            ( "pass_ms",
              J.Obj
                (List.filter_map
                   (fun g ->
                     let key = sprintf "row:%s:%s" it.name g in
                     if Hashtbl.mem sums key then Some (g, J.Float (sum key /. n))
                     else None)
                   pass_groups) );
          ];
      match Hashtbl.find_opt row_engine it.name with
      | Some (engine, qubits) ->
          print_row
            [
              ("item", J.String it.name);
              ("qubits", J.Int qubits);
              ("engine", J.String engine);
              ( "ns_per_shot",
                J.Float
                  (ratio (sprintf "row:%s:ns" it.name)
                     (sprintf "row:%s:shots" it.name)) );
            ]
      | None -> ())
    items

let traced ~rng ~items ~seconds =
  let host_copy = copy_bytes_per_s () in
  (* the end-to-end op without and with a collector installed *)
  let rate () =
    let ms = ref 0. and ops = ref 0 in
    let n =
      passes ~rng ~items ~seconds:(seconds /. 4.) ~min_ops:0 (fun it ~seed ->
          ms := !ms +. (measure it ~seed).ms;
          incr ops)
    in
    (float_of_int !ops /. (!ms /. 1000.), float_of_int n)
  in
  let untraced, _ = rate () in
  let counted, (traced_rate, counted_passes) =
    with_collector (fun _ -> rate ())
  in
  ignore
    (with_collector (fun collector ->
         passes ~rng ~items ~seconds:(seconds /. 2.) ~min_ops:0
           (traced_op collector)));
  print_rows items;
  let counter name = float_of_int (Obs.Collector.counter counted name) in
  let per_shot name =
    if counter "backend.shots" = 0. then 0.
    else counter name /. counter "backend.shots"
  in
  List.concat_map
    (fun g ->
      [
        ("pass." ^ g ^ ".ms", ratio ("pass." ^ g ^ ".ms") "compiles", "ms");
        ( "pass." ^ g ^ ".alloc_kwords",
          ratio ("pass." ^ g ^ ".alloc_kwords") "compiles",
          "kwords" );
      ])
    pass_groups
  @ [
      ("certify.proved_frac", ratio "certify.proved" "certify.runs", "frac");
      ("optimize.removed", ratio "optimize.removed" "optimize.compiles", "gates");
      ("reuse.qubits_saved", ratio "reuse.saved" "reuse.runs", "qubits");
      ( "transform.iterations",
        ratio "transform.iterations" "transform.runs",
        "count" );
      ( "backend.analyze.ms",
        ratio "backend.analyze.ms" "backend.analyze.ms.n",
        "ms" );
      ( "program.compile.ms",
        ratio "program.compile.ms" "program.compile.ms.n",
        "ms" );
      ("backend.select.ms", ratio "backend.select.ms" "backend.select.ms.n", "ms");
    ]
  @ List.map
      (fun e ->
        ( "backend.run." ^ e ^ ".ns_per_shot",
          ratio ("backend.run." ^ e ^ ".ns") ("backend.run." ^ e ^ ".shots"),
          "ns" ))
      engines
  @ List.map
      (fun e ->
        ( "backend.select." ^ e,
          counter ("backend.select." ^ e) /. counted_passes,
          "count" ))
      engines
  @ [
      ("backend.prefix.hit_frac", per_shot "backend.prefix.hit", "frac");
      ( "backend.handoff.per_shot",
        per_shot "backend.handoff.dense_to_sparse"
        +. per_shot "backend.handoff.sparse_to_dense",
        "count" );
      ( "backend.alloc_words_per_shot",
        ratio "backend.run.alloc_words" "backend.run.shots",
        "words" );
      ( "backend.parallel.cpu_per_wall",
        ratio "backend.run.cpu_s" "backend.run.wall_s",
        "ratio" );
      ("sim.dense.bytes_per_s", ratio "dense.bytes" "dense.wall_s", "B/s");
      ("host.copy_bytes_per_s", host_copy, "B/s");
      ("obs.overhead_frac", 1. -. (traced_rate /. untraced), "frac");
    ]

(* ------------------------------------------------------------------ *)
(* Self-test and provenance                                            *)

(* The checks must catch real faults: a transform output corrupted by
   Certifier.corrupt fails the compile check and the histogram check,
   and a correct histogram fails against a wrong reference while
   passing against the right one. *)
let self_test () =
  let dj =
    Algorithms.Dj.circuit (Option.get (Algorithms.Dj.oracle_by_name "DJ_XOR"))
  in
  let options = O.with_scheme Scheme.Dynamic_1 O.default in
  let corrupt (ctx : Dqc.Pass.ctx) =
    match ctx.transformed with
    | Some (Dqc.Pass.Single r) ->
        let circuit = Dqc.Certifier.corrupt r.circuit in
        {
          ctx with
          circuit;
          transformed = Some (Dqc.Pass.Single { r with circuit });
        }
    | Some (Dqc.Pass.Multi _) | None -> ctx
  in
  let bad = replay ~tamper:corrupt ~item:"self-test" ~options dj in
  let good = Dqc.Pipeline.compile ~options dj in
  let m = measures good in
  let reference = Sim.Exact.measured_distribution ~measures:m good.circuit in
  let sample c =
    Sim.Backend.run_measured ~domains ~shots:paper_shots ~measures:m c
  in
  let flipped =
    Sim.Dist.map_outcome ~width':(Sim.Dist.width reference)
      (fun o -> o lxor 1)
      reference
  in
  let cases =
    [
      ( "corrupted transform fails the compile check",
        compile_failure ~certified:bad.certified ~lint:bad.lint <> None );
      ( "corrupted transform fails the histogram check",
        histogram_failure reference (sample bad.circuit) <> None );
      ( "wrong reference fails the histogram check",
        histogram_failure flipped (sample good.circuit) <> None );
      ( "correct output passes both checks",
        output_failure good = None
        && histogram_failure reference (sample good.circuit) = None );
    ]
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("selftest", J.Obj (List.map (fun (k, v) -> (k, J.Bool v)) cases));
          ]));
  List.for_all snd cases

(* git is consulted only inside a work tree; a plain source checkout
   reports null *)
let git args =
  match Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (String.trim out)
      | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None)

let provenance ~workload ~seed ~seconds ~trace =
  let head, dirty =
    if Sys.file_exists ".git" then
      ( git [ "rev-parse"; "HEAD" ],
        Option.map (fun s -> s <> "") (git [ "status"; "--porcelain" ]) )
    else (None, None)
  in
  let opt f = function Some v -> f v | None -> J.Null in
  J.Obj
    [
      ( "provenance",
        J.Obj
          [
            ("git_head", opt (fun s -> J.String s) head);
            ("dirty", opt (fun b -> J.Bool b) dirty);
            ("workload", J.String workload);
            ("seed", J.Int seed);
            ("seconds", J.Float seconds);
            ("trace", J.Bool trace);
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("backend_domains", J.Int domains);
            ("ocaml", J.String Sys.ocaml_version);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let usage () =
  prerr_endline
    "usage: main.exe --workload compile-corpus|paper-jobs|wide-sim --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None
  and seed = ref 0
  and seconds = ref 10.
  and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        go rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some s -> seed := s | None -> usage ());
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := t = "1";
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some w -> (w, !seed, !seconds, !trace)
  | None -> usage ()

let () =
  let workload, seed, seconds, trace = parse_args () in
  let build =
    match List.assoc_opt workload workloads with
    | Some b -> b
    | None -> usage ()
  in
  print_endline (J.to_string (provenance ~workload ~seed ~seconds ~trace));
  let selftest_ok = self_test () in
  Hashtbl.reset sums;
  (* each set-up starts from a compacted heap, builds the inputs and
     references from scratch, then makes one warm-up pass so lazy state
     is filled before the timed passes *)
  let setup () =
    Gc.compact ();
    let t0 = wall () in
    let items = Array.of_list (build ()) in
    Array.iter
      (fun it ->
        try ignore (start ~seed:Sim.Runner.default_seed it.job ()) with _ -> ())
      items;
    (wall () -. t0, items)
  in
  let rng = Random.State.make [| seed |] in
  let metrics =
    if trace then begin
      let _, items = setup () in
      Gc.compact ();
      traced ~rng ~items ~seconds
    end
    else end_to_end ~rng ~setup ~seconds
  in
  let failed = List.length !failures in
  List.iteri
    (fun k (item, reason) ->
      if k < 20 then
        print_endline
          (J.to_string
             (J.Obj
                [
                  ( "failure",
                    J.Obj
                      [ ("item", J.String item); ("reason", J.String reason) ] );
                ])))
    (List.rev !failures);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (selftest_ok && failed = 0));
            ("attempted", J.Int !attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, value, unit) ->
                     ( name,
                       J.Obj
                         [ ("value", J.Float value); ("unit", J.String unit) ] ))
                   metrics) );
          ]))
