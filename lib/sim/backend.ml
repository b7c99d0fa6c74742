open Circuit

type policy = Auto | Statevector_dense | Sparse_statevector | Stabilizer | Exact_branch

let policy_to_string = function
  | Auto -> "auto"
  | Statevector_dense -> "dense"
  | Sparse_statevector -> "sparse"
  | Stabilizer -> "stabilizer"
  | Exact_branch -> "exact"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some Auto
  | "dense" | "statevector" -> Some Statevector_dense
  | "sparse" | "sparse-statevector" -> Some Sparse_statevector
  | "stabilizer" | "chp" -> Some Stabilizer
  | "exact" | "exact-branch" -> Some Exact_branch
  | _ -> None

let pp_policy fmt p = Format.pp_print_string fmt (policy_to_string p)

(* Per-circuit memo of the compiled program and the static resource
   summary, keyed on the physical circuit value: repeated [run]s of the
   same circuit pay for compilation and analysis once.  Keys are weak
   (ephemerons), so the cache never outlives its circuits. *)
module Cache = Ephemeron.K1.Make (struct
  type t = Circ.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type cached = {
  mutable program : Program.t option;
  mutable summary : Lint.Resource.summary option;
}

let cache : cached Cache.t = Cache.create 32

let cache_entry c =
  match Cache.find_opt cache c with
  | Some e -> e
  | None ->
      let e = { program = None; summary = None } in
      Cache.add cache c e;
      e

let compiled c =
  let e = cache_entry c in
  match e.program with
  | Some p -> p
  | None ->
      let p = Program.compile c in
      e.program <- Some p;
      p

let resource_summary c =
  let e = cache_entry c in
  match e.summary with
  | Some s -> s
  | None ->
      let s = Lint.Resource.analyze c in
      e.summary <- Some s;
      s

(* Share of the circuit's non-branching instructions that precede the
   first measure/reset — what the plan executor simulates once: 1.0 on
   terminal-measurement workloads (the whole unitary part is prefix),
   lower when mid-circuit measure/reset cuts it off.  An all-branching
   circuit caches everything cacheable, hence 1.0. *)
let prefix_fraction c =
  let prefix = ref 0 and unitary = ref 0 and cut = ref false in
  List.iter
    (function
      | Instruction.Measure _ | Instruction.Reset _ -> cut := true
      | Instruction.Unitary _ | Instruction.Conditioned _
      | Instruction.Barrier _ ->
          incr unitary;
          if not !cut then incr prefix)
    (Circ.instructions c);
  if !unitary = 0 then 1.0
  else float_of_int !prefix /. float_of_int !unitary

(* The exact backend pays ~2^k statevector replays up front and then
   O(1) per shot, where k is the analyzer's count of measure/reset
   points with statically unknown outcomes (deterministic collapses
   don't fork the branch tree) rather than the syntactic count; worth
   it only when that bound is comfortably below the shot count.  The
   old hard qubit cutoff stays for wide circuits unless the analyzer
   proves the live amplitude set itself is small. *)
let exact_auto_max_qubits = 16

let exact_tractable ~shots ~extra_branches c =
  Circ.num_qubits c <= Statevector.max_qubits
  &&
  let s = resource_summary c in
  let k = s.Lint.Resource.nondet_branches + extra_branches in
  (Circ.num_qubits c <= exact_auto_max_qubits
  || s.Lint.Resource.log2_bound_peak <= exact_auto_max_qubits)
  && k < Sys.int_size - 2
  && 1 lsl k <= max 64 (shots / 4)

let check_dense_fits ~who c =
  if Circ.num_qubits c > Statevector.max_qubits then
    invalid_arg
      (Printf.sprintf "Backend.run: %s backend capped at %d qubits (got %d)"
         who Statevector.max_qubits (Circ.num_qubits c))

(* ------------------------------------------------------------------ *)
(* Per-segment engine planning                                        *)

(* A segment goes sparse when the analyzer's certified amplitude bound
   leaves a comfortable margin under the dense dimension: with at most
   2^b nonzeros against 2^n dense amplitudes, sparse replay wins once
   the hash-table constant factor (~2^margin) is covered.  Past the
   dense cap there is no choice — every segment is sparse, so no [Auto]
   plan allocates a dense state that does not fit. *)
let sparse_margin = 6

(* Beyond this bound the hash-map state is dense-like (2^b entries)
   and the dense kernels' linear scans win on locality. *)
let sparse_log2_cap = 16

let sparse_worthwhile ~n (g : Lint.Resource.segment) =
  n > Statevector.max_qubits
  || (g.Lint.Resource.log2_bound_peak <= sparse_log2_cap
     && n - g.Lint.Resource.log2_bound_peak >= sparse_margin)

let engine_name = function
  | `Stabilizer -> "stabilizer"
  | `Exact -> "exact"
  | `Dense -> "dense"
  | `Sparse -> "sparse"
  | `Hybrid -> "hybrid"

type segment_engine = {
  seg_start : int;
  seg_stop : int;
  seg_engine : [ `Dense | `Sparse ];
}

let segment_plan c =
  let n = Circ.num_qubits c in
  let s = resource_summary c in
  List.map
    (fun (g : Lint.Resource.segment) ->
      {
        seg_start = g.Lint.Resource.start;
        seg_stop = g.Lint.Resource.stop;
        seg_engine = (if sparse_worthwhile ~n g then `Sparse else `Dense);
      })
    s.Lint.Resource.segments

let all_sparse plan =
  plan <> [] && List.for_all (fun p -> p.seg_engine = `Sparse) plan

let segment_plan_string plan =
  String.concat "," (List.map (fun p -> engine_name p.seg_engine) plan)

(* Clifford routing under [Auto]: the whole-circuit scan is the cheap
   path; failing that, the analyzer's witness — the same circuit minus
   statically-dead gates — is consulted, so a per-segment-Clifford
   dynamic circuit whose only non-Clifford gates are provably dead
   still lands on the tableau engine. *)
let stabilizer_circuit c =
  if Stabilizer.supports c then Some c
  else
    let s = resource_summary c in
    if s.Lint.Resource.clifford && Stabilizer.supports s.Lint.Resource.witness
    then Some s.Lint.Resource.witness
    else None

let check_sparse_fits c =
  if Circ.num_qubits c > Sparse.max_qubits then
    invalid_arg
      (Printf.sprintf "Backend.run: sparse backend capped at %d qubits (got %d)"
         Sparse.max_qubits (Circ.num_qubits c))

(* [extra_branches] accounts for terminal measurements a measurement
   plan appends after selection (each at most one branch point). *)
let select_gen ?(policy = Auto) ~shots ~extra_branches c =
  let engine =
    match policy with
    | Statevector_dense ->
        check_dense_fits ~who:"dense" c;
        `Dense
    | Sparse_statevector ->
        check_sparse_fits c;
        `Sparse
    | Stabilizer ->
        if not (Stabilizer.supports c) then
          raise
            (Stabilizer.Unsupported
               "Backend.run: stabilizer policy on a non-Clifford circuit");
        `Stabilizer
    | Exact_branch ->
        check_dense_fits ~who:"exact-branch" c;
        `Exact
    | Auto ->
        if stabilizer_circuit c <> None then `Stabilizer
        else if exact_tractable ~shots ~extra_branches c then `Exact
        else begin
          (* per-segment planning: all-dense plans run dense,
             all-sparse plans sparse, mixed plans hybrid *)
          let plan = segment_plan c in
          if all_sparse plan then begin
            check_sparse_fits c;
            `Sparse
          end
          else if List.exists (fun p -> p.seg_engine = `Sparse) plan then
            `Hybrid
          else begin
            check_dense_fits ~who:"dense" c;
            `Dense
          end
        end
  in
  if Obs.enabled () then Obs.incr ("backend.select." ^ engine_name engine);
  engine

let select ?policy ~shots c = select_gen ?policy ~shots ~extra_branches:0 c

(* ------------------------------------------------------------------ *)
(* The plan executor                                                  *)

(* A plan is the list of (engine, compiled program) steps a shot
   threads one state through: a dense or sparse run is one step over
   the memoized whole-circuit program, a hybrid run one step per
   analyzer segment ([segment_plan]), each compiled from that segment's
   instruction range.  Segments cut where [Program.split_prefix] cuts,
   so a segment boundary never falls inside a fusion window. *)
let engine_module = function
  | `Dense -> (module Statevector.Dense_engine : Engine.S)
  | `Sparse -> (module Sparse.Sparse_engine : Engine.S)

let plan_steps engine base =
  match engine with
  | (`Dense | `Sparse) as e -> [ (engine_module e, compiled base) ]
  | `Hybrid ->
      let num_qubits = Circ.num_qubits base and num_bits = Circ.num_bits base in
      let instrs = Array.of_list (Circ.instructions base) in
      List.map
        (fun s ->
          ( engine_module s.seg_engine,
            Program.compile_instructions ~num_qubits ~num_bits
              (Array.to_list
                 (Array.sub instrs s.seg_start (s.seg_stop - s.seg_start))) ))
        (segment_plan base)

(* The exact enumerator keeps one state per open fork: on the sparse
   engine when the analyzer plans every segment sparse — the same facts
   [select] consults for the sampled plan — and dense otherwise. *)
let exact_engine c =
  engine_module (if all_sparse (segment_plan c) then `Sparse else `Dense)

(* One shot's pass over the plan: hand the state to each step's engine
   and replay the step. *)
let rec replay ~random st = function
  | [] -> Engine.register st
  | (e, program) :: rest ->
      let st = Engine.convert e st in
      Engine.exec ~random st program;
      replay ~random st rest

(* The prefix of the first step (everything before its first
   measure/reset) draws no randomness: with [prefix_cache] it runs
   once, and every shot copies the result, replays the rest of the
   first step and converts the state at each engine change.  Handoffs
   happen at the same step boundaries every shot, so they are counted
   once per run, as [backend.handoff.dense_to_sparse] /
   [.sparse_to_dense] (the per-shot path stays counter-free). *)
let execute ?domains ~seed ~shots ~prefix_cache base steps =
  let names = List.map (fun ((module E : Engine.S), _) -> E.name) steps in
  let rec handoffs = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then handoffs rest
        else (a ^ "_to_" ^ b) :: handoffs rest
    | [ _ ] | [] -> []
  in
  let handoffs = handoffs names in
  List.iter (fun h -> Obs.incr ~n:shots ("backend.handoff." ^ h)) handoffs;
  if Obs.Flight.enabled () && List.length steps > 1 then
    Obs.Flight.record ~kind:"backend.hybrid.plan"
      [
        ("segments", Obs.Json.String (String.concat "," names));
        ("handoffs_per_shot", Obs.Json.Int (List.length handoffs));
      ];
  let start, steps =
    match steps with
    | [] ->
        (* only an instruction-free circuit has no segments, and Auto
           never runs one hybrid *)
        invalid_arg "Backend.run: empty plan"
    | ((module E : Engine.S) as e, first) :: rest ->
        let st =
          Engine.pack (module E)
            (E.create (Circ.num_qubits base) ~num_bits:(Circ.num_bits base))
        in
        if prefix_cache then
          Obs.with_span "backend.prefix.prepare" (fun () ->
              let prefix, suffix = Program.split_prefix first in
              Engine.exec ~random:Program.no_random st prefix;
              let fraction = prefix_fraction base in
              Obs.set_gauge "backend.prefix.fraction" fraction;
              if Obs.Flight.enabled () then
                Obs.Flight.record ~kind:"backend.prefix.prepared"
                  [ ("fraction", Obs.Json.Float fraction) ];
              (* counted once per run, not per shot: a counter bump is
                 a name lookup in the domain buffer, too expensive for
                 the per-shot path under the <2% telemetry budget *)
              Obs.incr ~n:shots "backend.prefix.hit";
              (st, (e, suffix) :: rest))
        else begin
          if Obs.Flight.enabled () then
            Obs.Flight.record ~kind:"backend.prefix.bypassed" [];
          Obs.incr ~n:shots "backend.prefix.miss";
          (st, steps)
        end
  in
  Parallel.run ?domains ~seed ~width:(Circ.num_bits base) ~shots
    (fun ~rng ~index:_ ->
      replay
        ~random:(fun () -> Random.State.float rng 1.0)
        (Engine.copy start) steps)

let run ?policy ?(seed = Runner.default_seed) ?domains ?plan
    ?(prefix_cache = true) ~shots c =
  (* selection happens on the un-instrumented circuit (the plan's
     terminal measurements change neither the gate set nor the qubit
     count; their branch points are accounted separately), so the
     per-circuit analysis memo keys on the caller's stable value *)
  let extra_branches =
    match plan with
    | None -> 0
    | Some plan ->
        List.length
          (Measurement_plan.to_pairs ~num_qubits:(Circ.num_qubits c) plan)
  in
  let engine = select_gen ?policy ~shots ~extra_branches c in
  let instrument circuit =
    match plan with
    | None -> circuit
    | Some plan -> Measurement_plan.instrument plan circuit
  in
  let base = instrument c in
  let width = Circ.num_bits base in
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"backend.run"
      [
        ("engine", Obs.Json.String (engine_name engine));
        ("seed", Obs.Json.Int seed);
        ("shots", Obs.Json.Int shots);
        ("qubits", Obs.Json.Int (Circ.num_qubits base));
        ("prefix_cache", Obs.Json.Bool prefix_cache);
      ];
  let dispatch () =
    match engine with
    | `Stabilizer ->
        (* an Auto selection may be backed by the analyzer's witness —
           run that circuit: it is observationally equivalent and inside
           the tableau gate set *)
        let cs =
          match stabilizer_circuit c with
          | Some w -> instrument w
          | None -> base
        in
        Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
            Stabilizer.register (Stabilizer.run ~rng cs))
    | `Exact ->
        let sampler =
          Dist.sampler
            (Exact.program_distribution ~engine:(exact_engine c)
               (Program.compile base))
        in
        Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
            Dist.sample sampler rng)
    | (`Dense | `Sparse | `Hybrid) as e ->
        execute ?domains ~seed ~shots ~prefix_cache base (plan_steps e base)
  in
  if not (Obs.enabled ()) then dispatch ()
  else begin
    let name = engine_name engine in
    Obs.incr ("backend.run." ^ name);
    (* plan-executor runs replay compiled programs: count them under the
       program engine as well so the compiled/interpreted split is
       visible in the metrics JSON *)
    (match engine with
    | `Dense | `Sparse | `Hybrid -> Obs.incr "backend.run.program"
    | `Stabilizer | `Exact -> ());
    Obs.incr ~n:shots "backend.shots";
    let r =
      Obs.with_span "backend.run"
        ~attrs:
          [
            ("engine", name);
            ("shots", string_of_int shots);
            ("qubits", string_of_int (Circ.num_qubits base));
          ]
        dispatch
    in
    (* the main domain's buffer (workers flushed at join) *)
    Obs.flush ();
    r
  end

let run_measured ?policy ?seed ?domains ?prefix_cache ~shots ~measures c =
  run ?policy ?seed ?domains ~plan:(Measurement_plan.of_pairs measures)
    ?prefix_cache ~shots c
