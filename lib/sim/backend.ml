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

(* What [run] dispatches: the tableau with the circuit it runs, exact
   with the engine that enumerates, a single statevector engine, or a
   hybrid plan. *)
type choice =
  [ `Stabilizer of Circ.t
  | `Exact of [ `Dense | `Sparse ]
  | `Dense
  | `Sparse
  | `Hybrid of segment_engine list ]

let segment_plan_string plan =
  String.concat "," (List.map (fun p -> engine_name p.seg_engine) plan)

(* ------------------------------------------------------------------ *)
(* Memory caps                                                        *)

let dense_cap n =
  if n > Statevector.max_qubits then
    Some (Printf.sprintf "dense capped at %d qubits" Statevector.max_qubits)
  else None

let sparse_cap n =
  if n > Sparse.max_qubits then
    Some (Printf.sprintf "sparse capped at %d qubits" Sparse.max_qubits)
  else None

(* The exact enumerator keeps one state per open fork.  On the dense
   engine each is a full 2^n vector, so it enumerates only narrow
   circuits, or circuits whose amplitude bound stays that narrow. *)
let dense_fork_max_qubits = 16

let dense_fork_cap (s : Lint.Resource.summary) n =
  match dense_cap n with
  | Some _ as cap -> cap
  | None ->
      if n <= dense_fork_max_qubits || s.log2_bound_peak <= dense_fork_max_qubits
      then None
      else
        Some
          (Printf.sprintf
             "dense enumerator capped at %d qubits or an amplitude bound of 2^%d"
             dense_fork_max_qubits dense_fork_max_qubits)

let check cap = Option.iter (fun why -> invalid_arg ("Backend.run: " ^ why)) cap

(* ------------------------------------------------------------------ *)
(* The cost model                                                     *)

(* A run's predicted CPU time in ns on each engine, from the facts of
   the one lazy resource summary a call forces and the per-engine
   constants `bench calibrate` measured ({!Calibration}).  An op costs
   the amplitudes it touches times its class's constant: 2^(n -
   controls) on the dense engine; on the sparse engine the analyzer's
   bound on the live entries around it, which drops at every collapse
   it cannot pin. *)
type model = {
  n : int;
  shots : float;
  summary : Lint.Resource.summary;
  prefix : int;  (** instructions before the first measure/reset *)
  dense_ops : float array;  (** ns of each instruction, dense engine *)
  sparse_ops : float array;  (** the same on the sparse engine *)
}

let constants = function
  | `Dense -> Calibration.dense
  | `Sparse -> Calibration.sparse

(* entries of a state before instruction [i] *)
let width e (s : Lint.Resource.summary) n i =
  match e with
  | `Dense -> Float.ldexp 1. n
  | `Sparse -> Float.ldexp 1. s.log2_bounds.(i)

let model ~shots (s : Lint.Resource.summary) c =
  let n = Circ.num_qubits c in
  let m = s.instructions in
  let dense_ops = Array.make m 0. and sparse_ops = Array.make m 0. in
  List.iteri
    (fun i instr ->
      let cost (k : Calibration.engine) =
        match (instr : Instruction.t) with
        | Unitary a | Conditioned (_, a) ->
            ( (match a.gate with
              | Gate.X -> k.x
              | Gate.H | Gate.Y | Gate.V | Gate.Vdg | Gate.Rx _ | Gate.Ry _ ->
                  k.mix
              | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg | Gate.Rz _
              | Gate.Phase _ ->
                  k.diag),
              List.length a.controls )
        | Measure _ | Reset _ -> (k.collapse, 0)
        | Barrier _ -> (0., 0)
      in
      let per, controls = cost Calibration.dense in
      dense_ops.(i) <- per *. Float.ldexp 1. (n - controls);
      let per, _ = cost Calibration.sparse in
      sparse_ops.(i) <-
        per *. Float.max (width `Sparse s n i) (width `Sparse s n (i + 1)))
    (Circ.instructions c);
  let prefix =
    List.find_index
      (function
        | Instruction.Measure _ | Instruction.Reset _ -> true
        | Instruction.Unitary _ | Instruction.Conditioned _
        | Instruction.Barrier _ ->
            false)
      (Circ.instructions c)
  in
  {
    n;
    shots = float_of_int shots;
    summary = s;
    prefix = Option.value ~default:m prefix;
    dense_ops;
    sparse_ops;
  }

(* ns of instructions [lo, hi) on one engine *)
let ops_ns e m lo hi =
  let ops = match e with `Dense -> m.dense_ops | `Sparse -> m.sparse_ops in
  let acc = ref 0. in
  for i = lo to hi - 1 do
    acc := !acc +. ops.(i)
  done;
  !acc

(* The plan executor runs the first segment's unitary prefix once;
   each shot copies the state it leaves, replays the rest and converts
   the state at every engine change. *)
let sampled_ns m plan =
  let width e i = width e m.summary m.n i in
  let handoff i =
    (Calibration.handoff *. Float.ldexp 1. m.n)
    +. (Calibration.sparse.copy *. width `Sparse i)
  in
  match plan with
  | [] -> 0.
  | first :: rest ->
      let e0 = first.seg_engine in
      let cut = min m.prefix first.seg_stop in
      let per_shot, _ =
        List.fold_left
          (fun (acc, prev) p ->
            let acc = acc +. ops_ns p.seg_engine m p.seg_start p.seg_stop in
            ( (if p.seg_engine = prev then acc else acc +. handoff p.seg_start),
              p.seg_engine ))
          ( (constants e0).shot
            +. ((constants e0).copy *. width e0 cut)
            +. ops_ns e0 m cut first.seg_stop,
            e0 )
          rest
      in
      ops_ns e0 m 0 cut +. (m.shots *. per_shot)

(* Each analyzer segment on the engine that runs it cheaper, the first
   segment's once-per-run prefix and per-shot copy included. *)
let greedy_plan m =
  List.mapi
    (fun j (g : Lint.Resource.segment) ->
      let cost e =
        if j = 0 then
          sampled_ns m [ { seg_start = g.start; seg_stop = g.stop; seg_engine = e } ]
        else m.shots *. ops_ns e m g.start g.stop
      in
      {
        seg_start = g.start;
        seg_stop = g.stop;
        seg_engine = (if cost `Sparse < cost `Dense then `Sparse else `Dense);
      })
    m.summary.segments

(* a single-engine run is one step over the whole circuit *)
let uniform_plan e m =
  [ { seg_start = 0; seg_stop = m.summary.instructions; seg_engine = e } ]

(* The enumeration tree: instruction [i] runs on up to 2^forks.(i)
   branches, each fork copies its state once per branch, and every
   leaf pays its emission; then an alias draw per shot. *)
let exact_ns e m =
  let k = constants e and forks = m.summary.forks in
  let ops = match e with `Dense -> m.dense_ops | `Sparse -> m.sparse_ops in
  let acc = ref 0. in
  Array.iteri
    (fun i op ->
      let branches = Float.ldexp 1. forks.(i) in
      acc := !acc +. (branches *. op);
      if forks.(i + 1) > forks.(i) then
        acc := !acc +. (branches *. k.copy *. width e m.summary m.n i))
    ops;
  !acc
  +. (Float.ldexp 1. forks.(Array.length ops) *. k.leaf)
  +. (m.shots *. Calibration.alias)

(* Exact on whichever enumerator engine fits and costs less. *)
let exact_candidate m =
  let on e cap =
    match cap with Some why -> Error why | None -> Ok (e, exact_ns e m)
  in
  match (on `Sparse (sparse_cap m.n), on `Dense (dense_fork_cap m.summary m.n)) with
  | Ok (e, a), Ok (_, b) when a <= b -> Ok (`Exact e, a)
  | _, Ok (e, b) -> Ok (`Exact e, b)
  | Ok (e, a), Error _ -> Ok (`Exact e, a)
  | Error why, Error _ -> Error (`Exact `Sparse, why)

(* Every engine Auto may pick but the tableau, with its predicted ns or
   the cap that rules it out, in tie-break order. *)
let candidates m =
  let single e cap =
    match cap with
    | Some why -> Error ((e :> choice), why)
    | None -> Ok ((e :> choice), sampled_ns m (uniform_plan e m))
  in
  let hybrid =
    match dense_cap m.n with
    | Some why -> Error (`Hybrid [], why)
    | None ->
        let plan = greedy_plan m in
        if
          List.exists (fun p -> p.seg_engine = `Sparse) plan
          && List.exists (fun p -> p.seg_engine = `Dense) plan
        then Ok (`Hybrid plan, sampled_ns m plan)
        else Error (`Hybrid plan, "every segment cheaper on one engine")
  in
  [
    exact_candidate m;
    single `Sparse (sparse_cap m.n);
    single `Dense (dense_cap m.n);
    hybrid;
  ]

(* The cheapest feasible candidate; the first on a tie. *)
let pick cands =
  let best =
    List.fold_left
      (fun best c ->
        match (best, c) with
        | None, Ok x -> Some x
        | Some (_, b), Ok ((_, ns) as x) when ns < b -> Some x
        | (Some _ | None), (Ok _ | Error _) -> best)
      None cands
  in
  match best with
  | Some (choice, _) -> choice
  | None ->
      invalid_arg
        ("Backend.run: "
        ^ String.concat "; "
            (List.sort_uniq String.compare
               (List.filter_map
                  (function Error (_, why) -> Some why | Ok _ -> None)
                  cands)))

let engine_of = function
  | `Stabilizer _ -> `Stabilizer
  | `Exact _ -> `Exact
  | `Hybrid _ -> `Hybrid
  | (`Dense | `Sparse) as e -> e

type prediction = {
  forks : int;
  costs :
    ([ `Dense | `Stabilizer | `Exact | `Sparse | `Hybrid ]
    * (float, string) result)
    list;
  exact_engine : [ `Dense | `Sparse ] option;
  plan : segment_engine list;
}

let prediction_of m cands =
  {
    forks = m.summary.forks.(m.summary.instructions);
    costs =
      List.map
        (function
          | Ok (e, ns) -> (engine_of e, Ok (ns /. 1e6))
          | Error (e, why) -> (engine_of e, Error why))
        cands;
    exact_engine =
      List.find_map
        (function Ok (`Exact e, _) -> Some e | Ok _ | Error _ -> None)
        cands;
    plan = greedy_plan m;
  }

let predict ~shots c =
  let s = resource_summary c in
  let m = model ~shots s c in
  prediction_of m (candidates m)

(* Clifford routing under [Auto]: the whole-circuit scan is the cheap
   path; failing that, the analyzer's witness — the same circuit minus
   statically-dead gates — is consulted, so a per-segment-Clifford
   dynamic circuit whose only non-Clifford gates are provably dead
   still lands on the tableau engine.  The tableau stays first even
   where an exact enumeration would be faster: it holds no 2^n state. *)
let stabilizer_circuit summary c =
  if Stabilizer.supports c then Some c
  else
    let s = Lazy.force summary in
    if s.Lint.Resource.clifford && Stabilizer.supports s.Lint.Resource.witness
    then Some s.Lint.Resource.witness
    else None

(* One [backend.select] flight event per Auto decision: the facts, each
   feasible engine's predicted ms, the cap ruling out each other one
   and the winner. *)
let record_decision ~shots c choice prediction =
  let facts =
    [
      ("qubits", Obs.Json.Int (Circ.num_qubits c));
      ("shots", Obs.Json.Int shots);
    ]
  in
  let why =
    match prediction with
    | None -> [ ("rule", Obs.Json.String "clifford") ]
    | Some p ->
        let predicted =
          List.filter_map
            (function
              | e, Ok ms -> Some (engine_name e, Obs.Json.Float ms)
              | _, Error _ -> None)
            p.costs
        and ruled_out =
          List.filter_map
            (function
              | e, Error why -> Some (engine_name e, Obs.Json.String why)
              | _, Ok _ -> None)
            p.costs
        in
        [
          ("rule", Obs.Json.String "cost");
          ("forks", Obs.Json.Int p.forks);
          ("predicted_ms", Obs.Json.Obj predicted);
          ("ruled_out", Obs.Json.Obj ruled_out);
        ]
        @ (match p.exact_engine with
          | Some e -> [ ("exact_engine", Obs.Json.String (engine_name e)) ]
          | None -> [])
        @ [ ("plan", Obs.Json.String (segment_plan_string p.plan)) ]
  in
  Obs.Flight.record ~kind:"backend.select"
    (facts @ why
    @ [ ("winner", Obs.Json.String (engine_name (engine_of choice))) ])

(* A stabilizer choice carries the circuit the tableau runs: [c], or
   under [Auto] possibly the analyzer's witness; an exact choice the
   engine that enumerates; a hybrid choice its plan. *)
let select_gen ?(policy = Auto) ~shots summary c =
  let n = Circ.num_qubits c in
  let choice =
    match policy with
    | Statevector_dense ->
        check (dense_cap n);
        `Dense
    | Sparse_statevector ->
        check (sparse_cap n);
        `Sparse
    | Stabilizer ->
        if not (Stabilizer.supports c) then
          raise
            (Stabilizer.Unsupported
               "Backend.run: stabilizer policy on a non-Clifford circuit");
        `Stabilizer c
    | Exact_branch -> pick [ exact_candidate (model ~shots (Lazy.force summary) c) ]
    | Auto -> (
        match stabilizer_circuit summary c with
        | Some w ->
            if Obs.Flight.enabled () then
              record_decision ~shots c (`Stabilizer w) None;
            `Stabilizer w
        | None ->
            let m = model ~shots (Lazy.force summary) c in
            let cands = candidates m in
            let choice = pick cands in
            if Obs.Flight.enabled () then
              record_decision ~shots c choice (Some (prediction_of m cands));
            choice)
  in
  if Obs.enabled () then
    Obs.incr ("backend.select." ^ engine_name (engine_of choice));
  choice

let select ?policy ~shots c =
  engine_of (select_gen ?policy ~shots (lazy (resource_summary c)) c)

(* ------------------------------------------------------------------ *)
(* The plan executor                                                  *)

(* A plan is the list of (engine, compiled program) steps a shot
   threads one state through: a dense or sparse run is one step over
   the whole-circuit program, a hybrid run one step per analyzer
   segment (the cost model's plan), each compiled from that segment's
   instruction range.  Segments cut where [Program.split_prefix]
   cuts. *)
let engine_module = function
  | `Dense -> (module Statevector.Dense_engine : Engine.S)
  | `Sparse -> (module Sparse.Sparse_engine : Engine.S)

let plan_steps choice base =
  match choice with
  | (`Dense | `Sparse) as e -> [ (engine_module e, Program.compile base) ]
  | `Hybrid plan ->
      let num_qubits = Circ.num_qubits base and num_bits = Circ.num_bits base in
      let instrs = Array.of_list (Circ.instructions base) in
      List.map
        (fun s ->
          ( engine_module s.seg_engine,
            Program.compile_instructions ~num_qubits ~num_bits
              (Array.to_list
                 (Array.sub instrs s.seg_start (s.seg_stop - s.seg_start))) ))
        plan

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
  (* selection reads the instrumented circuit: the plan's terminal
     measurements are per-shot work for a sampled run and one pass for
     an exact one *)
  let base =
    match plan with
    | None -> c
    | Some plan -> Measurement_plan.instrument plan c
  in
  let choice = select_gen ?policy ~shots (lazy (resource_summary base)) base in
  let engine = engine_of choice in
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
        Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
            Stabilizer.register (Stabilizer.run ~rng cs))
    | `Exact e ->
        let sampler =
          Dist.sampler
            (Exact.program_distribution ~engine:(engine_module e)
               (Program.compile base))
        in
        Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
            Dist.sample sampler rng)
    | (`Dense | `Sparse | `Hybrid _) as e ->
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
