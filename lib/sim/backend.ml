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

let resource_summary c = Lint.Resource.analyze c

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

(* [summary] is the circuit's lazy resource summary: every helper below
   forces the same one, so a call analyzes its circuit at most once. *)
let exact_tractable ~shots ~extra_branches summary c =
  Circ.num_qubits c <= Statevector.max_qubits
  &&
  let s = Lazy.force summary in
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

let plan_of_summary ~n (s : Lint.Resource.summary) =
  List.map
    (fun (g : Lint.Resource.segment) ->
      {
        seg_start = g.Lint.Resource.start;
        seg_stop = g.Lint.Resource.stop;
        seg_engine = (if sparse_worthwhile ~n g then `Sparse else `Dense);
      })
    s.Lint.Resource.segments

let segment_plan c = plan_of_summary ~n:(Circ.num_qubits c) (resource_summary c)

let all_sparse plan =
  plan <> [] && List.for_all (fun p -> p.seg_engine = `Sparse) plan

let segment_plan_string plan =
  String.concat "," (List.map (fun p -> engine_name p.seg_engine) plan)

(* Clifford routing under [Auto]: the whole-circuit scan is the cheap
   path; failing that, the analyzer's witness — the same circuit minus
   statically-dead gates — is consulted, so a per-segment-Clifford
   dynamic circuit whose only non-Clifford gates are provably dead
   still lands on the tableau engine. *)
let stabilizer_circuit summary c =
  if Stabilizer.supports c then Some c
  else
    let s = Lazy.force summary in
    if s.Lint.Resource.clifford && Stabilizer.supports s.Lint.Resource.witness
    then Some s.Lint.Resource.witness
    else None

let check_sparse_fits c =
  if Circ.num_qubits c > Sparse.max_qubits then
    invalid_arg
      (Printf.sprintf "Backend.run: sparse backend capped at %d qubits (got %d)"
         Sparse.max_qubits (Circ.num_qubits c))

let engine_of = function
  | `Stabilizer _ -> `Stabilizer
  | (`Dense | `Sparse | `Hybrid | `Exact) as e -> e

(* [extra_branches] accounts for terminal measurements a measurement
   plan appends after selection (each at most one branch point).  A
   stabilizer choice carries the circuit the tableau runs: [c], or
   under [Auto] possibly the analyzer's witness. *)
let select_gen ?(policy = Auto) ~shots ~extra_branches summary c =
  let choice =
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
        `Stabilizer c
    | Exact_branch ->
        check_dense_fits ~who:"exact-branch" c;
        `Exact
    | Auto -> (
        match stabilizer_circuit summary c with
        | Some w -> `Stabilizer w
        | None ->
            if exact_tractable ~shots ~extra_branches summary c then `Exact
            else begin
              (* per-segment planning: all-dense plans run dense,
                 all-sparse plans sparse, mixed plans hybrid *)
              let plan =
                plan_of_summary ~n:(Circ.num_qubits c) (Lazy.force summary)
              in
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
            end)
  in
  if Obs.enabled () then
    Obs.incr ("backend.select." ^ engine_name (engine_of choice));
  choice

let select ?policy ~shots c =
  engine_of
    (select_gen ?policy ~shots ~extra_branches:0 (lazy (resource_summary c)) c)

(* ------------------------------------------------------------------ *)
(* The plan executor                                                  *)

(* A plan is the list of (engine, compiled program) steps a shot
   threads one state through: a dense or sparse run is one step over
   the whole-circuit program, a hybrid run one step per analyzer
   segment ([segment_plan]), each compiled from that segment's
   instruction range.  Segments cut where [Program.split_prefix] cuts,
   so a segment boundary never falls inside a fusion window. *)
let engine_module = function
  | `Dense -> (module Statevector.Dense_engine : Engine.S)
  | `Sparse -> (module Sparse.Sparse_engine : Engine.S)

let plan_steps engine summary base =
  match engine with
  | (`Dense | `Sparse) as e -> [ (engine_module e, Program.compile base) ]
  | `Hybrid ->
      let num_qubits = Circ.num_qubits base and num_bits = Circ.num_bits base in
      let instrs = Array.of_list (Circ.instructions base) in
      List.map
        (fun s ->
          ( engine_module s.seg_engine,
            Program.compile_instructions ~num_qubits ~num_bits
              (Array.to_list
                 (Array.sub instrs s.seg_start (s.seg_stop - s.seg_start))) ))
        (plan_of_summary ~n:num_qubits (Lazy.force summary))

(* The exact enumerator keeps one state per open fork: on the sparse
   engine when the analyzer plans every segment sparse — the same facts
   [select] consults for the sampled plan — and dense otherwise. *)
let exact_engine summary c =
  let plan = plan_of_summary ~n:(Circ.num_qubits c) (Lazy.force summary) in
  engine_module (if all_sparse plan then `Sparse else `Dense)

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
  (* selection happens on the un-instrumented circuit: the plan's
     terminal measurements change neither the gate set nor the qubit
     count, and their branch points are accounted separately *)
  let extra_branches =
    match plan with
    | None -> 0
    | Some plan ->
        List.length
          (Measurement_plan.to_pairs ~num_qubits:(Circ.num_qubits c) plan)
  in
  let summary = lazy (resource_summary c) in
  let choice = select_gen ?policy ~shots ~extra_branches summary c in
  let engine = engine_of choice in
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
    match choice with
    | `Stabilizer cs ->
        (* an Auto selection may be backed by the analyzer's witness —
           run that circuit: it is observationally equivalent and inside
           the tableau gate set *)
        let cs = instrument cs in
        Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
            Stabilizer.register (Stabilizer.run ~rng cs))
    | `Exact ->
        let sampler =
          Dist.sampler
            (Exact.program_distribution ~engine:(exact_engine summary c)
               (Program.compile base))
        in
        Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
            Dist.sample sampler rng)
    | (`Dense | `Sparse | `Hybrid) as e ->
        (* a hybrid run with a measurement plan takes its segments from
           the instrumented circuit *)
        let summary =
          if base == c then summary else lazy (resource_summary base)
        in
        execute ?domains ~seed ~shots ~prefix_cache base
          (plan_steps e summary base)
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
