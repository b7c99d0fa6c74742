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

(* What [run] dispatches: exact with the engine that enumerates, a
   single engine, or a hybrid plan.  The tableau, sampled or
   enumerated, runs the analyzer's witness. *)
type choice =
  [ `Exact of [ `Dense | `Sparse | `Stabilizer ]
  | `Dense
  | `Sparse
  | `Stabilizer
  | `Hybrid of segment_engine list ]

let segment_plan_string plan =
  String.concat "," (List.map (fun p -> engine_name p.seg_engine) plan)

(* ------------------------------------------------------------------ *)
(* Memory caps and the tableau's gate set                             *)

let dense_cap n =
  if n > Statevector.max_qubits then
    Some (Printf.sprintf "dense capped at %d qubits" Statevector.max_qubits)
  else None

let sparse_cap n =
  if n > Sparse.max_qubits then
    Some (Printf.sprintf "sparse capped at %d qubits" Sparse.max_qubits)
  else None

let tableau_cap n =
  if n > Stabilizer.max_qubits then
    Some (Printf.sprintf "tableau capped at %d qubits" Stabilizer.max_qubits)
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

(* The tableau runs the analyzer's witness — the circuit with the
   gates the analyzer proves dead dropped, observationally the same —
   when the analyzer's verdict is Clifford and every kernel of the
   witness's program maps onto the tableau.  [tableau_verdict] is why
   it cannot, from the cap and the verdict alone, before any compile. *)
let tableau_verdict (s : Lint.Resource.summary) =
  match tableau_cap s.num_qubits with
  | Some _ as cap -> cap
  | None ->
      if s.clifford then None
      else Some "a non-Clifford gate the analyzer cannot drop"

let tableau_program (s : Lint.Resource.summary) =
  match tableau_verdict s with
  | Some why -> Error why
  | None ->
      let p = Program.compile s.witness in
      if Stabilizer.supports p then Ok p
      else Error "a witness kernel outside the tableau's gate set"

(* ------------------------------------------------------------------ *)
(* The cost model                                                     *)

(* A run's predicted CPU time in ns on each engine, from the facts of
   the one lazy resource summary a call forces and the per-engine
   constants `bench calibrate` measured ({!Calibration}).  An op costs
   the work units it touches times its class's constant: 2^(n -
   controls) amplitudes on the dense engine; on the sparse engine the
   analyzer's bound on the live entries around it, which drops at every
   collapse it cannot pin; on the tableau its 2n generator rows per
   gate and n^2 bits per collapse. *)
type model = {
  n : int;
  shots : float;
  summary : Lint.Resource.summary;
  prefix : int;  (** instructions before the first measure/reset *)
  trailing : int;  (** first instruction of the trailing measurement run *)
  dense_ops : float array;  (** ns of each instruction, dense engine *)
  sparse_ops : float array;  (** the same on the sparse engine *)
  tableau_ops : float array;  (** the same on the tableau *)
  tableau : (Program.t, string) result Lazy.t;
      (** the witness's program, or why the tableau cannot run it *)
  tableau_out : string option;
      (** why the tableau is ruled out so far: its verdict, or once its
          witness is compiled, its gate set *)
}

let constants = function
  | `Dense -> Calibration.dense
  | `Sparse -> Calibration.sparse
  | `Stabilizer -> Calibration.tableau

(* work units a copy of the state before instruction [i] holds: 2^n
   amplitudes, the bound on the live sparse entries, or the tableau's
   n^2 bits *)
let width e m i =
  match e with
  | `Dense -> Float.ldexp 1. m.n
  | `Sparse -> Float.ldexp 1. m.summary.log2_bounds.(i)
  | `Stabilizer -> float_of_int (m.n * m.n)

let model ~shots (s : Lint.Resource.summary) tableau c =
  let n = Circ.num_qubits c in
  let m = s.instructions in
  let dense_ops = Array.make m 0.
  and sparse_ops = Array.make m 0.
  and tableau_ops = Array.make m 0. in
  List.iteri
    (fun i instr ->
      let cost (k : Calibration.engine) =
        match (instr : Instruction.t) with
        | Unitary a | Conditioned (_, a) -> (
            match a.gate with
            | Gate.X -> k.x
            | Gate.H | Gate.Y | Gate.V | Gate.Vdg | Gate.Rx _ | Gate.Ry _ ->
                k.mix
            | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg | Gate.Rz _
            | Gate.Phase _ ->
                k.diag)
        | Measure _ | Reset _ -> k.collapse
        | Barrier _ -> 0.
      in
      let controls, rows =
        match (instr : Instruction.t) with
        | Unitary a | Conditioned (_, a) ->
            (List.length a.controls, float_of_int (2 * n))
        | Measure _ | Reset _ | Barrier _ -> (0, float_of_int (n * n))
      in
      dense_ops.(i) <- cost Calibration.dense *. Float.ldexp 1. (n - controls);
      sparse_ops.(i) <-
        cost Calibration.sparse
        *. Float.ldexp 1. (max s.log2_bounds.(i) s.log2_bounds.(i + 1));
      tableau_ops.(i) <- cost Calibration.tableau *. rows)
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
  (* one past the last instruction that is not a measurement or a
     barrier, as the analyzer's [forks] draws the line *)
  let trailing =
    List.fold_left
      (fun (i, t) instr ->
        match (instr : Instruction.t) with
        | Measure _ | Barrier _ -> (i + 1, t)
        | Unitary _ | Conditioned _ | Reset _ -> (i + 1, i + 1))
      (0, 0) (Circ.instructions c)
    |> snd
  in
  {
    n;
    shots = float_of_int shots;
    summary = s;
    prefix = Option.value ~default:m prefix;
    trailing;
    dense_ops;
    sparse_ops;
    tableau_ops;
    tableau;
    tableau_out = tableau_verdict s;
  }

let ops_of e m =
  match e with
  | `Dense -> m.dense_ops
  | `Sparse -> m.sparse_ops
  | `Stabilizer -> m.tableau_ops

(* ns of instructions [lo, hi) on one engine *)
let ops_ns e m lo hi =
  let ops = ops_of e m in
  let acc = ref 0. in
  for i = lo to hi - 1 do
    acc := !acc +. ops.(i)
  done;
  !acc

(* The plan executor runs the first step's unitary prefix once; each
   shot copies the state it leaves, replays the rest of the step, then
   each later segment of a hybrid plan, converting the state at every
   engine change. *)
let sampled_ns m e0 stop0 rest =
  let handoff i =
    (Calibration.handoff *. Float.ldexp 1. m.n)
    +. (Calibration.sparse.copy *. width `Sparse m i)
  in
  let cut = min m.prefix stop0 in
  let k = constants e0 in
  let per_shot, _ =
    List.fold_left
      (fun (acc, prev) p ->
        let e = (p.seg_engine :> [ `Dense | `Sparse | `Stabilizer ]) in
        let acc = acc +. ops_ns e m p.seg_start p.seg_stop in
        ((if e = prev then acc else acc +. handoff p.seg_start), e))
      (k.shot +. (k.copy *. width e0 m cut) +. ops_ns e0 m cut stop0, e0)
      rest
  in
  ops_ns e0 m 0 cut +. (m.shots *. per_shot)

let plan_ns m = function
  | [] -> 0.
  | first :: rest ->
      sampled_ns m (first.seg_engine :> [ `Dense | `Sparse | `Stabilizer ])
        first.seg_stop rest

(* Each analyzer segment on the engine that runs it cheaper, the first
   segment's once-per-run prefix and per-shot copy included. *)
let greedy_plan m =
  List.mapi
    (fun j (g : Lint.Resource.segment) ->
      let cost e =
        if j = 0 then sampled_ns m e g.stop []
        else m.shots *. ops_ns e m g.start g.stop
      in
      {
        seg_start = g.start;
        seg_stop = g.stop;
        seg_engine = (if cost `Sparse < cost `Dense then `Sparse else `Dense);
      })
    m.summary.segments

(* Each leaf reads the trailing measurements in one pass.  On a
   statevector engine the pass is one sweep over the amplitudes its
   collapse ops are priced at.  The tableau's pass forks instead: each
   of the run's outcomes costs it about a copy and two collapses of its
   n^2 bits, and an emission.  A leaf's outcomes are at most 2^(the
   run's unpinned collapses) and 2^(the bound at the run's start). *)
let trailing_ns e m =
  match e with
  | `Dense | `Sparse -> 0.
  | `Stabilizer ->
      let s = m.summary and k = Calibration.tableau in
      let leaves = s.forks.(s.instructions) in
      let unpinned = s.nondet_branches - leaves in
      Float.ldexp 1. (leaves + min unpinned s.log2_bounds.(m.trailing))
      *. (((k.copy +. (2. *. k.collapse)) *. width e m 0) +. k.leaf)

(* The enumeration tree: instruction [i] runs on up to 2^forks.(i)
   branches, each fork copies its state once per branch, and every
   leaf pays its emission and its trailing pass; then an alias draw
   per shot. *)
let exact_ns e m =
  let k = constants e and forks = m.summary.forks in
  let acc = ref 0. in
  Array.iteri
    (fun i op ->
      let branches = Float.ldexp 1. forks.(i) in
      acc := !acc +. (branches *. op);
      if forks.(i + 1) > forks.(i) then
        acc := !acc +. (branches *. k.copy *. width e m i))
    (ops_of e m);
  !acc
  +. (Float.ldexp 1. forks.(m.summary.instructions) *. k.leaf)
  +. trailing_ns e m
  +. (m.shots *. Calibration.alias)

(* The cheapest [Ok] of [cands], the first on a tie *)
let cheapest cands =
  List.fold_left
    (fun best c ->
      match (best, c) with
      | None, Ok x -> Some x
      | Some (_, b), Ok ((_, ns) as x) when ns < b -> Some x
      | (Some _ | None), (Ok _ | Error _) -> best)
    None cands

(* Exact on whichever enumerator engine fits and costs least: the
   first of sparse, dense and the tableau on a tie.  A circuit no
   enumerator fits is past the sparse cap, the reason reported. *)
let exact_candidate m =
  let on e cap =
    match cap with
    | Some why -> Error (`Exact e, why)
    | None -> Ok (`Exact e, exact_ns e m)
  in
  let enumerators =
    [
      on `Sparse (sparse_cap m.n);
      on `Dense (dense_fork_cap m.summary m.n);
      on `Stabilizer m.tableau_out;
    ]
  in
  match cheapest enumerators with
  | Some x -> Ok x
  | None -> List.hd enumerators

(* Every engine Auto may pick, with its predicted ns or the cap or gate
   set that rules it out, in tie-break order. *)
let candidates m =
  let single e cap =
    match cap with
    | Some why -> Error ((e :> choice), why)
    | None ->
        Ok ((e :> choice), sampled_ns m e m.summary.instructions [])
  in
  let hybrid =
    match dense_cap m.n with
    | Some why -> Error (`Hybrid [], why)
    | None ->
        let plan = greedy_plan m in
        if
          List.exists (fun p -> p.seg_engine = `Sparse) plan
          && List.exists (fun p -> p.seg_engine = `Dense) plan
        then Ok (`Hybrid plan, plan_ns m plan)
        else Error (`Hybrid plan, "every segment cheaper on one engine")
  in
  [
    exact_candidate m;
    single `Sparse (sparse_cap m.n);
    single `Dense (dense_cap m.n);
    hybrid;
    single `Stabilizer m.tableau_out;
  ]

(* The cheapest feasible candidate; the first on a tie. *)
let pick cands =
  match cheapest cands with
  | Some (choice, _) -> choice
  | None ->
      invalid_arg
        ("Backend.run: "
        ^ String.concat "; "
            (List.sort_uniq String.compare
               (List.filter_map
                  (function Error (_, why) -> Some why | Ok _ -> None)
                  cands)))

(* The tableau is priced on the analyzer's verdict.  Its witness is
   compiled, and checked against the tableau's gate set, only when it
   wins, so a run compiles one program: the witness's or the
   circuit's.  A failed check rules the tableau out and picks again. *)
let rec decide cands_of m =
  let cands = cands_of m in
  match pick cands with
  | (`Stabilizer | `Exact `Stabilizer) as choice -> (
      match Lazy.force m.tableau with
      | Ok _ -> (m, cands, choice)
      | Error why -> decide cands_of { m with tableau_out = Some why })
  | (`Exact (`Dense | `Sparse) | `Dense | `Sparse | `Hybrid _) as choice ->
      (m, cands, choice)

let engine_of = function
  | `Exact _ -> `Exact
  | `Hybrid _ -> `Hybrid
  | (`Dense | `Sparse | `Stabilizer) as e -> e

type prediction = {
  forks : int;
  costs :
    ([ `Dense | `Stabilizer | `Exact | `Sparse | `Hybrid ]
    * (float, string) result)
    list;
  exact_engine : [ `Dense | `Sparse | `Stabilizer ] option;
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
  let m, cands, _ =
    decide candidates (model ~shots s (lazy (tableau_program s)) c)
  in
  prediction_of m cands

(* One [backend.select] flight event per Auto decision: the facts, each
   feasible engine's predicted ms, the cap or gate set ruling out each
   other one and the winner. *)
let record_decision ~shots c choice p =
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
  Obs.Flight.record ~kind:"backend.select"
    ([
       ("qubits", Obs.Json.Int (Circ.num_qubits c));
       ("shots", Obs.Json.Int shots);
       ("rule", Obs.Json.String "cost");
       ("forks", Obs.Json.Int p.forks);
       ("predicted_ms", Obs.Json.Obj predicted);
       ("ruled_out", Obs.Json.Obj ruled_out);
     ]
    @ (match p.exact_engine with
      | Some e -> [ ("exact_engine", Obs.Json.String (engine_name e)) ]
      | None -> [])
    @ [
        ("plan", Obs.Json.String (segment_plan_string p.plan));
        ("winner", Obs.Json.String (engine_name (engine_of choice)));
      ])

(* [tableau] is the lazily compiled witness {!tableau_program} gives,
   shared with the dispatch that runs it; an exact choice carries the
   engine that enumerates, a hybrid choice its plan. *)
let select_gen ?(policy = Auto) ~shots summary tableau c =
  let n = Circ.num_qubits c in
  let model () = model ~shots (Lazy.force summary) tableau c in
  let choice =
    match policy with
    | Statevector_dense ->
        check (dense_cap n);
        `Dense
    | Sparse_statevector ->
        check (sparse_cap n);
        `Sparse
    | Stabilizer -> (
        check (tableau_cap n);
        match Lazy.force tableau with
        | Ok _ -> `Stabilizer
        | Error why ->
            raise
              (Stabilizer.Unsupported
                 ("Backend.run: stabilizer policy: " ^ why)))
    | Exact_branch ->
        let _, _, choice = decide (fun m -> [ exact_candidate m ]) (model ()) in
        choice
    | Auto ->
        let m, cands, choice = decide candidates (model ()) in
        if Obs.Flight.enabled () then
          record_decision ~shots c choice (prediction_of m cands);
        choice
  in
  if Obs.enabled () then
    Obs.incr ("backend.select." ^ engine_name (engine_of choice));
  choice

let select ?policy ~shots c =
  let summary = lazy (resource_summary c) in
  engine_of
    (select_gen ?policy ~shots summary
       (lazy (tableau_program (Lazy.force summary)))
       c)

(* ------------------------------------------------------------------ *)
(* The plan executor                                                  *)

let statevector = function
  | `Dense -> (module Statevector.Dense_engine : Engine.S)
  | `Sparse -> (module Sparse.Sparse_engine : Engine.S)

let engine_module = function
  | (`Dense | `Sparse) as e ->
      let (module E) = statevector e in
      (module E : Engine.Core)
  | `Stabilizer -> (module Stabilizer.Tableau_engine : Engine.Core)

(* One hybrid shot's pass over the steps after the first: hand the
   state to each step's engine and replay the step. *)
let rec replay ~random st = function
  | [] -> Engine.register st
  | (e, program) :: rest ->
      let st = Engine.convert e st in
      Engine.exec ~random st program;
      replay ~random st rest

(* A shot replays [first] on engine [E], then [finish] reads the
   register: at once for a single-engine run, after the later steps for
   a hybrid one.  The prefix of [first] (everything before its first
   measure/reset) draws no randomness: with [prefix_cache] it runs
   once, and every shot copies the result and replays the rest. *)
let execute (type s) ?domains ~seed ~shots ~prefix_cache base
    (module E : Engine.Core with type state = s) first
    (finish : random:(unit -> float) -> s -> int) =
  let start = E.create (Circ.num_qubits base) ~num_bits:(Circ.num_bits base) in
  let first =
    if prefix_cache then
      Obs.with_span "backend.prefix.prepare" (fun () ->
          let prefix, suffix = Program.split_prefix first in
          E.exec ~random:Program.no_random start prefix;
          let fraction = prefix_fraction base in
          Obs.set_gauge "backend.prefix.fraction" fraction;
          if Obs.Flight.enabled () then
            Obs.Flight.record ~kind:"backend.prefix.prepared"
              [ ("fraction", Obs.Json.Float fraction) ];
          (* counted once per run, not per shot: a counter bump is a
             name lookup in the domain buffer, too expensive for the
             per-shot path under the <2% telemetry budget *)
          Obs.incr ~n:shots "backend.prefix.hit";
          suffix)
    else begin
      if Obs.Flight.enabled () then
        Obs.Flight.record ~kind:"backend.prefix.bypassed" [];
      Obs.incr ~n:shots "backend.prefix.miss";
      first
    end
  in
  Parallel.run ?domains ~seed ~width:(Circ.num_bits base) ~shots
    (fun ~rng ~index:_ ->
      let random () = Random.State.float rng 1.0 in
      let st = E.copy start in
      E.exec ~random st first;
      finish ~random st)

(* A hybrid run is one step per plan entry, each compiled from that
   segment's instruction range (segments cut where
   [Program.split_prefix] cuts).  Handoffs happen at the same step
   boundaries every shot, so they are counted once per run, as
   [backend.handoff.dense_to_sparse] / [.sparse_to_dense] (the
   per-shot path stays counter-free). *)
let execute_hybrid ?domains ~seed ~shots ~prefix_cache base plan =
  let num_qubits = Circ.num_qubits base and num_bits = Circ.num_bits base in
  let instrs = Array.of_list (Circ.instructions base) in
  let steps =
    List.map
      (fun s ->
        ( statevector s.seg_engine,
          Program.compile_instructions ~num_qubits ~num_bits
            (Array.to_list
               (Array.sub instrs s.seg_start (s.seg_stop - s.seg_start))) ))
      plan
  in
  let names = List.map (fun ((module E : Engine.S), _) -> E.name) steps in
  let rec handoffs = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then handoffs rest
        else (a ^ "_to_" ^ b) :: handoffs rest
    | [ _ ] | [] -> []
  in
  let handoffs = handoffs names in
  List.iter (fun h -> Obs.incr ~n:shots ("backend.handoff." ^ h)) handoffs;
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"backend.hybrid.plan"
      [
        ("segments", Obs.Json.String (String.concat "," names));
        ("handoffs_per_shot", Obs.Json.Int (List.length handoffs));
      ];
  match steps with
  | [] ->
      (* only an instruction-free circuit has no segments, and Auto
         never runs one hybrid *)
      invalid_arg "Backend.run: empty plan"
  | ((module E : Engine.S), first) :: rest ->
      execute ?domains ~seed ~shots ~prefix_cache base
        (module E : Engine.Core with type state = E.state)
        first
        (fun ~random st -> replay ~random (Engine.pack (module E) st) rest)

let run ?policy ?(seed = Runner.default_seed) ?domains ?plan
    ?(prefix_cache = true) ~shots c =
  if shots < 0 then invalid_arg "Backend.run: negative shots";
  (match domains with
  | Some d when d < 1 -> invalid_arg "Backend.run: domains < 1"
  | Some _ | None -> ());
  (* selection reads the instrumented circuit: the plan's terminal
     measurements are per-shot work for a sampled run and one pass for
     an exact one *)
  let base =
    match plan with
    | None -> c
    | Some plan -> Measurement_plan.instrument plan c
  in
  let summary = lazy (resource_summary base) in
  let tableau = lazy (tableau_program (Lazy.force summary)) in
  let choice = select_gen ?policy ~shots summary tableau base in
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
  (* the tableau runs the witness's program, every other engine the
     circuit's own *)
  let program = function
    | `Stabilizer -> (
        match Lazy.force tableau with
        | Ok p -> p
        | Error why -> invalid_arg ("Backend.run: " ^ why))
    | `Dense | `Sparse -> Program.compile base
  in
  let dispatch () =
    match choice with
    | `Exact e ->
        (* every shot from one stream: the histogram is a function of
           (seed, shots, law) alone, and no domain is spawned *)
        let sampler =
          Dist.sampler
            (Exact.program_distribution ~engine:(engine_module e) (program e))
        in
        Runner.of_counts ~width
          (Dist.draw sampler (Random.State.make [| seed |]) ~shots)
    | (`Dense | `Sparse | `Stabilizer) as e ->
        let (module E : Engine.Core) = engine_module e in
        execute ?domains ~seed ~shots ~prefix_cache base
          (module E)
          (program e)
          (fun ~random:_ st -> E.register st)
    | `Hybrid plan ->
        execute_hybrid ?domains ~seed ~shots ~prefix_cache base plan
  in
  if not (Obs.enabled ()) then dispatch ()
  else begin
    let name = engine_name engine in
    Obs.incr ("backend.run." ^ name);
    (* plan-executor runs replay compiled programs step by step: count
       them apart from the exact enumerations *)
    (match engine with
    | `Dense | `Sparse | `Hybrid | `Stabilizer -> Obs.incr "backend.run.program"
    | `Exact -> ());
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
