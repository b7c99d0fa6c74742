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

let resource_summary c = Lint.Resource.analyze (Lint.Trace.run c)

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
  if n > Circ.max_qubits then
    Some (Printf.sprintf "tableau capped at %d qubits" Circ.max_qubits)
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

(* The walk keeps a state for each pending sibling only when states
   are narrow on their engine ({!Walk.holds}), in the cost model's work
   units: amplitudes, live sparse entries, tableau bits.  Past it,
   every shot walks alone from a copy of the state where the shots
   first part, so at most two states are live per domain. *)
let holds e n (s : Lint.Resource.summary Lazy.t) =
  let narrow log2_units = Walk.holds (Float.ldexp 1. log2_units) in
  match e with
  | `Dense | `Hybrid -> narrow n
  | `Sparse -> narrow n || narrow (Lazy.force s).log2_bound_peak
  | `Stabilizer -> Walk.holds (float_of_int (n * n))

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
   gate and n^2 bits per collapse.  Every price is a sum over
   instructions, so [model] folds each engine's sums once, and a range
   of instructions costs two lookups. *)
type sums = {
  once : float array;
      (** [once.(i)]: ns of instructions [0, i), each run once; kept
          only past the walk's width, where every shot walks alone *)
  walked : float array;
      (** the same, each instruction on the walk's branches, plus the
          state copy of every split; kept only where the walk holds *)
  tree : float;
      (** the exact enumeration tree, leaves and trailing pass aside *)
}

type model = {
  n : int;
  shots : float;
  summary : Lint.Resource.summary;
  prefix : int;  (** instructions before the first measure/reset *)
  trailing : int;  (** first instruction of the trailing measurement run *)
  collapses : int;  (** measure and reset instructions *)
  branches : float array;
      (** per instruction, the walk branches it runs on *)
  dense_ns : sums;
  sparse_ns : sums;
  tableau_ns : sums;
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
let width e (s : Lint.Resource.summary) n i =
  match e with
  | `Dense -> Float.ldexp 1. n
  | `Sparse -> Float.ldexp 1. s.log2_bounds.(i)
  | `Stabilizer -> float_of_int (n * n)

(* The class constant of an instruction on one engine *)
let class_cost (k : Calibration.engine) (instr : Instruction.t) =
  match instr with
  | Unitary a | Conditioned (_, a) -> (
      match a.gate with
      | Gate.X -> k.x
      | Gate.H | Gate.Y | Gate.V | Gate.Vdg | Gate.Rx _ | Gate.Ry _ -> k.mix
      | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg | Gate.Rz _
      | Gate.Phase _ ->
          k.diag)
  | Measure _ | Reset _ -> k.collapse
  | Barrier _ -> 0.

let new_sums m ~once ~walked =
  let prices keep = if keep then Array.make (m + 1) 0. else [||] in
  { once = prices once; walked = prices walked; tree = 0. }

(* Instruction [i] into one engine's sums: [op] ns once; on the [b]
   branches of the walk that reach it, [split] of which part in two
   there; and on [tb] branches of the exact tree, each forking there
   when [fork].  A copy costs [k_copy] per unit of a state [units]
   wide.  Returns the tree's new total. *)
let[@inline] add_instr sums i ~b ~split ~tb ~fork ~op ~k_copy ~units tree =
  if Array.length sums.once > 0 then
    sums.once.(i + 1) <- sums.once.(i) +. op;
  if Array.length sums.walked > 0 then
    sums.walked.(i + 1) <-
      sums.walked.(i) +. (b *. op) +. (split *. (k_copy *. units));
  let tree = tree +. (tb *. op) in
  if fork then tree +. (tb *. k_copy *. units) else tree

(* One pass over the instructions folds every engine's sums.  The
   walk's branches before instruction [i] are the shots' histories of
   outcomes so far: at most [shots], and at most 2^forks.(i).  The
   trailing measurements are no forks (an exact run reads them in one
   pass), but the walk splits on them too: the run's unpinned
   collapses, one per trailing measurement at most, bound how far. *)
let model ~shots (s : Lint.Resource.summary) tableau c =
  let n = Circ.num_qubits c in
  let m = s.instructions in
  let instrs = Array.of_list (Circ.instructions c) in
  let shots = float_of_int shots in
  let is_collapse : Instruction.t -> bool = function
    | Measure _ | Reset _ -> true
    | Unitary _ | Conditioned _ | Barrier _ -> false
  in
  let prefix = ref m and trailing = ref 0 and collapses = ref 0 in
  Array.iteri
    (fun i (instr : Instruction.t) ->
      if is_collapse instr then begin
        incr collapses;
        if !prefix = m then prefix := i
      end;
      (* one past the last instruction that is not a measurement or a
         barrier, as the analyzer's [forks] draws the line *)
      match instr with
      | Measure _ | Barrier _ -> ()
      | Unitary _ | Conditioned _ | Reset _ -> trailing := i + 1)
    instrs;
  let trailing = !trailing and forks = s.forks in
  let unpinned = s.nondet_branches - forks.(m) in
  let branches = Array.make (m + 1) 0. in
  let walk_branches i read =
    Float.min shots (Float.ldexp 1. (forks.(i) + min unpinned read))
  in
  branches.(0) <- walk_branches 0 0;
  (* past the walk's width, hybrid runs walk shots alone on either
     statevector engine; the tableau's prices matter only when the
     analyzer's verdict admits it *)
  let wide = not (holds `Hybrid n (Lazy.from_val s)) in
  let tableau_out = tableau_verdict s in
  let walks e = holds e n (Lazy.from_val s) in
  let dense = new_sums m ~once:wide ~walked:(walks `Dense)
  and sparse = new_sums m ~once:wide ~walked:(walks `Sparse)
  and tab =
    let admitted = Option.is_none tableau_out in
    new_sums m
      ~once:(admitted && not (walks `Stabilizer))
      ~walked:(admitted && walks `Stabilizer)
  in
  let dense_tree = ref 0. and sparse_tree = ref 0. and tab_tree = ref 0. in
  let read = ref 0 in
  for i = 0 to m - 1 do
    let instr = instrs.(i) in
    (match instr with
    | Measure _ when i >= trailing -> incr read
    | Measure _ | Unitary _ | Conditioned _ | Reset _ | Barrier _ -> ());
    branches.(i + 1) <- walk_branches (i + 1) !read;
    let b = branches.(i) and split = branches.(i + 1) -. branches.(i) in
    let tb = Float.ldexp 1. forks.(i) and fork = forks.(i + 1) > forks.(i) in
    let controls =
      match instr with
      | Unitary a | Conditioned (_, a) -> List.length a.controls
      | Measure _ | Reset _ | Barrier _ -> 0
    in
    let rows = if is_collapse instr then n * n else 2 * n in
    dense_tree :=
      add_instr dense i ~b ~split ~tb ~fork
        ~op:
          (class_cost Calibration.dense instr *. Float.ldexp 1. (n - controls))
        ~k_copy:Calibration.dense.copy ~units:(width `Dense s n i) !dense_tree;
    sparse_tree :=
      add_instr sparse i ~b ~split ~tb ~fork
        ~op:
          (class_cost Calibration.sparse instr
          *. Float.ldexp 1. (max s.log2_bounds.(i) s.log2_bounds.(i + 1)))
        ~k_copy:Calibration.sparse.copy ~units:(width `Sparse s n i)
        !sparse_tree;
    tab_tree :=
      add_instr tab i ~b ~split ~tb ~fork
        ~op:(class_cost Calibration.tableau instr *. float_of_int rows)
        ~k_copy:Calibration.tableau.copy ~units:(width `Stabilizer s n i)
        !tab_tree
  done;
  {
    n;
    shots;
    summary = s;
    prefix = !prefix;
    trailing;
    collapses = !collapses;
    branches;
    dense_ns = { dense with tree = !dense_tree };
    sparse_ns = { sparse with tree = !sparse_tree };
    tableau_ns = { tab with tree = !tab_tree };
    tableau;
    tableau_out;
  }

let sums_of e m =
  match e with
  | `Dense -> m.dense_ns
  | `Sparse -> m.sparse_ns
  | `Stabilizer -> m.tableau_ns

(* ns of instructions [lo, hi) on one engine, once, or on the walk's
   branches *)
let ops_ns e m lo hi =
  let s = sums_of e m in
  s.once.(hi) -. s.once.(lo)

let walked_ns e m lo hi =
  let s = sums_of e m in
  s.walked.(hi) -. s.walked.(lo)

(* What every sampled shot pays whatever its branch: its share of the
   tally, and one draw at each measure and reset *)
let per_shot e m =
  (constants e).shot +. (float_of_int m.collapses *. Calibration.draw)

let handoff_ns m i =
  (Calibration.handoff *. Float.ldexp 1. m.n)
  +. (Calibration.sparse.copy *. width `Sparse m.summary m.n i)

(* Past the walk's width every shot walks alone: the first step's
   unitary prefix runs once; each shot copies the state it leaves,
   replays the rest of the step, then each later segment of a hybrid
   plan, converting the state at every engine change. *)
let replay_ns m e0 stop0 rest =
  let cut = min m.prefix stop0 in
  let k = constants e0 in
  let per_shot, _ =
    List.fold_left
      (fun (acc, prev) p ->
        let e = (p.seg_engine :> [ `Dense | `Sparse | `Stabilizer ]) in
        let acc = acc +. ops_ns e m p.seg_start p.seg_stop in
        ((if e = prev then acc else acc +. handoff_ns m p.seg_start), e))
      ( per_shot e0 m
        +. (k.copy *. width e0 m.summary m.n cut)
        +. ops_ns e0 m cut stop0,
        e0 )
      rest
  in
  ops_ns e0 m 0 cut +. (m.shots *. per_shot)

(* A single engine's sampled run: the walk, each instruction once per
   branch and a copy per split, or past its width the per-shot walk *)
let sampled_ns m e =
  if holds e m.n (Lazy.from_val m.summary) then
    walked_ns e m 0 m.summary.instructions +. (m.shots *. per_shot e m)
  else replay_ns m e m.summary.instructions []

let plan_ns m = function
  | [] -> 0.
  | first :: rest ->
      let e0 = (first.seg_engine :> [ `Dense | `Sparse | `Stabilizer ]) in
      if holds `Hybrid m.n (Lazy.from_val m.summary) then
        fst
          (List.fold_left
             (fun (acc, prev) p ->
               let e = (p.seg_engine :> [ `Dense | `Sparse | `Stabilizer ]) in
               let handoffs =
                 if e = prev then 0.
                 else m.branches.(p.seg_start) *. handoff_ns m p.seg_start
               in
               (acc +. walked_ns e m p.seg_start p.seg_stop +. handoffs, e))
             (m.shots *. per_shot e0 m, e0)
             (first :: rest))
      else replay_ns m e0 first.seg_stop rest

(* Each analyzer segment on the engine that runs it cheaper.  A walked
   shot pays the same whichever engine holds its branch, so only the
   per-shot walk charges the first segment its per-shot costs. *)
let greedy_plan m =
  let walks = holds `Hybrid m.n (Lazy.from_val m.summary) in
  List.mapi
    (fun j (g : Lint.Resource.segment) ->
      let cost e =
        match (walks, j) with
        | true, _ -> walked_ns e m g.start g.stop
        | false, 0 -> replay_ns m e g.stop []
        | false, _ -> m.shots *. ops_ns e m g.start g.stop
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
      *. (((k.copy +. (2. *. k.collapse)) *. width e s m.n 0) +. k.leaf)

(* The enumeration tree: instruction [i] runs on up to 2^forks.(i)
   branches, each fork copies its state once per branch, and every
   leaf pays its emission and its trailing pass; then an alias draw
   per shot. *)
let exact_ns e m =
  (sums_of e m).tree
  +. (Float.ldexp 1. m.summary.forks.(m.summary.instructions)
     *. (constants e).leaf)
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
    | None -> Ok ((e :> choice), sampled_ns m e)
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
(* Walked runs                                                        *)

let engine_module = function
  | `Dense -> (module Statevector.Dense_engine : Engine.Core)
  | `Sparse -> (module Sparse.Sparse_engine : Engine.Core)
  | `Stabilizer -> (module Stabilizer.Tableau_engine : Engine.Core)

(* One step of a hybrid plan: a statevector engine and its walk. *)
type step =
  | Step : (module Engine.S with type state = 's) * 's Walk.program -> step

(* Walk a hybrid branch's step from [st], then hand each of its
   branches to the next step's engine, once per branch. *)
let rec walk_steps : type s.
    Walk.block -> (module Engine.S with type state = s) -> s Walk.program ->
    s -> step list -> int -> int -> unit =
 fun b (module E) wp st rest lo hi ->
  Walk.shots
    (module E : Engine.Core with type state = s)
    b wp st lo hi
    (fun st lo hi ->
      match rest with
      | [] -> Walk.tally b (E.register st) lo hi
      | Step ((module F), wp) :: rest ->
          walk_steps b (module F) wp (F.of_state (E.to_state st)) rest lo hi)

(* A hybrid run walks one step per run of plan entries on one engine,
   compiled from that range of instructions (segments cut where
   [Program.split_prefix] cuts), so every step boundary is a handoff.
   Every shot crosses every boundary, so handoffs are counted once per
   run, per shot, as [backend.handoff.dense_to_sparse] /
   [.sparse_to_dense]. *)
let execute_hybrid ?domains ~seed ~shots ~hold base plan =
  let num_qubits = Circ.num_qubits base and num_bits = Circ.num_bits base in
  let instrs = Array.of_list (Circ.instructions base) in
  let rec merge = function
    | a :: b :: rest when a.seg_engine = b.seg_engine ->
        merge ({ a with seg_stop = b.seg_stop } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  let steps = merge plan in
  let rec handoffs = function
    | a :: (b :: _ as rest) ->
        (engine_name a.seg_engine ^ "_to_" ^ engine_name b.seg_engine)
        :: handoffs rest
    | [ _ ] | [] -> []
  in
  let handoffs = handoffs steps in
  List.iter (fun h -> Obs.incr ~n:shots ("backend.handoff." ^ h)) handoffs;
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"backend.hybrid.plan"
      [
        ("segments", Obs.Json.String (segment_plan_string plan));
        ("handoffs_per_shot", Obs.Json.Int (List.length handoffs));
      ];
  let step s =
    let p =
      Program.compile_instructions ~num_qubits ~num_bits
        (Array.to_list
           (Array.sub instrs s.seg_start (s.seg_stop - s.seg_start)))
    in
    match s.seg_engine with
    | `Dense -> Step ((module Statevector.Dense_engine), Walk.program p)
    | `Sparse -> Step ((module Sparse.Sparse_engine), Walk.program p)
  in
  match List.map step steps with
  | [] ->
      (* only an instruction-free circuit has no segments, and Auto
         never runs one hybrid *)
      invalid_arg "Backend.run: empty plan"
  | Step ((module E), wp) :: rest ->
      Walk.execute ?domains ~seed ~shots ~hold ~width:num_bits (fun b lo hi ->
          walk_steps b (module E) wp (E.create num_qubits ~num_bits) rest lo hi)

let run ?policy ?(seed = Runner.default_seed) ?domains ?plan ~shots c =
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
  let num_qubits = Circ.num_qubits base and width = Circ.num_bits base in
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"backend.run"
      [
        ("engine", Obs.Json.String (engine_name engine));
        ("seed", Obs.Json.Int seed);
        ("shots", Obs.Json.Int shots);
        ("qubits", Obs.Json.Int num_qubits);
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
        let wp = Walk.program (program e) in
        (* only a sparse run past 16 qubits reads the summary here *)
        Walk.execute ?domains ~seed ~shots ~hold:(holds e num_qubits summary)
          ~width (fun b lo hi ->
            Walk.shots
              (module E)
              b wp
              (E.create num_qubits ~num_bits:width)
              lo hi
              (fun st lo hi -> Walk.tally b (E.register st) lo hi))
    | `Hybrid plan ->
        execute_hybrid ?domains ~seed ~shots
          ~hold:(holds `Hybrid num_qubits summary)
          base plan
  in
  if not (Obs.enabled ()) then dispatch ()
  else begin
    let name = engine_name engine in
    Obs.incr ("backend.run." ^ name);
    (* walked runs share every shot's unitary prefix: count them apart
       from the exact enumerations *)
    (match engine with
    | `Dense | `Sparse | `Hybrid | `Stabilizer ->
        Obs.incr "backend.run.program";
        Obs.incr ~n:shots "backend.prefix.hit"
    | `Exact -> ());
    Obs.incr ~n:shots "backend.shots";
    let r =
      Obs.with_span "backend.run"
        ~attrs:
          [
            ("engine", name);
            ("shots", string_of_int shots);
            ("qubits", string_of_int num_qubits);
          ]
        dispatch
    in
    (* the main domain's buffer (workers flushed at join) *)
    Obs.flush ();
    r
  end

let run_measured ?policy ?seed ?domains ~shots ~measures c =
  run ?policy ?seed ?domains ~plan:(Measurement_plan.of_pairs measures) ~shots
    c
