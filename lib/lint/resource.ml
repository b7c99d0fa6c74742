open Circuit

type segment = {
  start : int;
  stop : int;
  clifford : bool;
  t_count : int;
  non_clifford : int;
  log2_bound_end : int;
  log2_bound_peak : int;
  nondet : int;
}

type summary = {
  num_qubits : int;
  num_bits : int;
  instructions : int;
  segments : segment list;
  clifford : bool;
  witness : Circ.t;
  t_count : int;
  non_clifford : int;
  log2_bound_peak : int;
  log2_bounds : int array;
  nondet_branches : int;
  forks : int array;
}

(* ------------------------------------------------------------------ *)
(* Witness simplification — the fact queries live in {!Deadness}, the
   API shared with the lint passes and the certified optimizer. *)

let qubit_value = Deadness.qubit_value
let witness_instr = Deadness.witness_instr

(* Mirrors the tableau's gate set (the kernels {!Sim.Stabilizer.supports}
   maps); the backend re-checks the witness's compiled program against
   the engine itself, so a drift here can cost precision but never
   soundness. *)
let classify_witness (i : Instruction.t) =
  match i with
  | Instruction.Unitary a | Instruction.Conditioned (_, a) -> (
      match[@warning "-4"] (a.gate, a.controls) with
      | (Gate.H | Gate.X | Gate.Y | Gate.Z | Gate.S | Gate.Sdg), [] ->
          `Clifford
      | (Gate.X | Gate.Z), [ _ ] -> `Clifford
      | (Gate.T | Gate.Tdg), [] -> `T
      | _ -> `Non_clifford)
  | Instruction.Measure _ | Instruction.Reset _ | Instruction.Barrier _ ->
      `Clifford

let is_collapse (i : Instruction.t) =
  match i with
  | Instruction.Measure _ | Instruction.Reset _ -> true
  | Instruction.Unitary _ | Instruction.Conditioned _ | Instruction.Barrier _
    ->
      false

(* ------------------------------------------------------------------ *)

let analyze_body trace =
  let c = Trace.circuit trace in
  let m = Trace.length trace in
  let nq = Circ.num_qubits c in
  (* every index is read: as a segment boundary, as a peak candidate
     and in [log2_bounds] *)
  let bounds =
    Array.init (m + 1) (fun i ->
        Reldom.log2_support_bound (State.rel (Trace.pre trace i)))
  in
  (* witness instructions, per original index *)
  let witness_at =
    Array.init m (fun i -> witness_instr (Trace.pre trace i) (Trace.instr trace i))
  in
  (* the measurements (barriers aside) that end the circuit start at
     [trailing]: one exact pass reads them without forking *)
  let trailing =
    let rec back i =
      if i = 0 then 0
      else
        match Trace.instr trace (i - 1) with
        | Instruction.Measure _ | Instruction.Barrier _ -> back (i - 1)
        | Instruction.Unitary _ | Instruction.Conditioned _
        | Instruction.Reset _ ->
            i
    in
    back m
  in
  let forks = Array.make (m + 1) 0 in
  (* nondeterministic branch points: measure/reset whose outcome the
     analysis cannot pin from the pre-state, nor tie to the register
     that a branch of the enumeration fixes *)
  let nondet_at i =
    match Trace.instr trace i with
    | Instruction.Measure { qubit; _ } | Instruction.Reset qubit ->
        let pre = Trace.pre trace i in
        if
          qubit_value pre qubit = None
          && not (Reldom.branch_constant (State.rel pre) qubit)
        then 1
        else 0
    | Instruction.Unitary _ | Instruction.Conditioned _
    | Instruction.Barrier _ ->
        0
  in
  (* segment boundaries: the split_prefix rule — a measure/reset opens
     a new segment unless it extends a measure/reset run *)
  let starts = ref [] in
  for i = m - 1 downto 1 do
    if is_collapse (Trace.instr trace i)
       && not (is_collapse (Trace.instr trace (i - 1)))
    then starts := i :: !starts
  done;
  let starts = if m = 0 then [] else 0 :: !starts in
  let rec segments = function
    | [] -> []
    | start :: rest ->
        let stop = match rest with s :: _ -> s | [] -> m in
        let clifford = ref true
        and t_count = ref 0
        and non_clifford = ref 0
        and nondet = ref 0
        and peak = ref bounds.(start) in
        for i = start to stop - 1 do
          (match witness_at.(i) with
          | None -> ()
          | Some w -> (
              match classify_witness w with
              | `Clifford -> ()
              | `T ->
                  incr t_count;
                  clifford := false
              | `Non_clifford ->
                  incr non_clifford;
                  clifford := false));
          let d = nondet_at i in
          nondet := !nondet + d;
          forks.(i + 1) <- (forks.(i) + if i < trailing then d else 0);
          peak := max !peak bounds.(i + 1)
        done;
        {
          start;
          stop;
          clifford = !clifford;
          t_count = !t_count;
          non_clifford = !non_clifford;
          log2_bound_end = bounds.(stop);
          log2_bound_peak = !peak;
          nondet = !nondet;
        }
        :: segments rest
  in
  let segments = segments starts in
  let nb = Circ.num_bits c in
  let witness =
    Circ.create ~roles:(Circ.roles c) ~num_bits:nb
      (Array.fold_right
         (fun w acc -> match w with Some i -> i :: acc | None -> acc)
         witness_at [])
  in
  let sum f = List.fold_left (fun acc (s : segment) -> acc + f s) 0 segments in
  Obs.incr ~n:(List.length segments) "analyze.segment";
  {
    num_qubits = nq;
    num_bits = nb;
    instructions = m;
    segments;
    clifford = List.for_all (fun (s : segment) -> s.clifford) segments;
    witness;
    t_count = sum (fun s -> s.t_count);
    non_clifford = sum (fun s -> s.non_clifford);
    log2_bound_peak =
      List.fold_left
        (fun acc (s : segment) -> max acc s.log2_bound_peak)
        0 segments;
    log2_bounds = bounds;
    nondet_branches = sum (fun s -> s.nondet);
    forks;
  }

let analyze trace =
  Obs.with_span "analyze.resources"
    ~attrs:
      [ ("qubits", string_of_int (Circ.num_qubits (Trace.circuit trace))) ]
    (fun () -> analyze_body trace)

(* ------------------------------------------------------------------ *)
(* The report *)

(* The feed-forward depth — the most measurement->conditioned-gate hops
   on any dependency path — and per qubit the instruction indices of
   its first and last reference ([None] when never referenced). *)
let feedforward c =
  let nq = Circ.num_qubits c in
  let qff = Array.make nq 0 and bff = Array.make (Circ.num_bits c) 0 in
  let live = Array.make nq None in
  let max_over a init = List.fold_left (fun acc x -> max acc a.(x)) init in
  List.iteri
    (fun i instr ->
      let qs = Instruction.qubits instr in
      List.iter
        (fun q ->
          let first = match live.(q) with Some (f, _) -> f | None -> i in
          live.(q) <- Some (first, i))
        qs;
      let qf = max_over qff 0 qs in
      let set f = List.iter (fun q -> qff.(q) <- f) qs in
      match instr with
      | Instruction.Unitary _ | Instruction.Reset _ | Instruction.Barrier _ ->
          set qf
      | Instruction.Conditioned (cond, _) ->
          (* reading a measured bit into a gate is the feed-forward hop *)
          set (1 + max_over bff (qf - 1) (List.map fst cond.bits))
      | Instruction.Measure { bit; _ } -> bff.(bit) <- qf)
    (Circ.instructions c);
  (max (Array.fold_left max 0 qff) (Array.fold_left max 0 bff), live)

let segment_to_json s =
  Obs.Json.Obj
    [
      ("start", Obs.Json.Int s.start);
      ("stop", Obs.Json.Int s.stop);
      ("clifford", Obs.Json.Bool s.clifford);
      ("t_count", Obs.Json.Int s.t_count);
      ("non_clifford", Obs.Json.Int s.non_clifford);
      ("log2_bound_end", Obs.Json.Int s.log2_bound_end);
      ("log2_bound_peak", Obs.Json.Int s.log2_bound_peak);
      ("nondet", Obs.Json.Int s.nondet);
    ]

let to_json ?name c s =
  let feedforward_depth, live = feedforward c in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "dqc.analyze/1");
      ( "circuit",
        match name with Some n -> Obs.Json.String n | None -> Obs.Json.Null );
      ("num_qubits", Obs.Json.Int s.num_qubits);
      ("num_bits", Obs.Json.Int s.num_bits);
      ("instructions", Obs.Json.Int s.instructions);
      ("clifford", Obs.Json.Bool s.clifford);
      ("t_count", Obs.Json.Int s.t_count);
      ("non_clifford", Obs.Json.Int s.non_clifford);
      ("log2_bound_peak", Obs.Json.Int s.log2_bound_peak);
      ("nondet_branches", Obs.Json.Int s.nondet_branches);
      ("dynamic_depth", Obs.Json.Int (Metrics.dynamic_depth c));
      ("feedforward_depth", Obs.Json.Int feedforward_depth);
      ("segments", Obs.Json.List (List.map segment_to_json s.segments));
      ( "live_ranges",
        Obs.Json.List
          (List.filter_map Fun.id
             (List.mapi
                (fun q ->
                  Option.map (fun (first, last) ->
                      Obs.Json.Obj
                        [
                          ("qubit", Obs.Json.Int q);
                          ("first", Obs.Json.Int first);
                          ("last", Obs.Json.Int last);
                        ]))
                (Array.to_list live))) );
    ]

let pp c fmt s =
  Format.fprintf fmt
    "@[<v>%d instruction%s over %d qubit%s in %d segment%s:@,\
     clifford %b, T %d, non-Clifford %d, log2 amplitude bound <= %d,@,\
     nondet branches %d, dynamic depth %d, feed-forward depth %d"
    s.instructions
    (if s.instructions = 1 then "" else "s")
    s.num_qubits
    (if s.num_qubits = 1 then "" else "s")
    (List.length s.segments)
    (if List.length s.segments = 1 then "" else "s")
    s.clifford s.t_count s.non_clifford s.log2_bound_peak s.nondet_branches
    (Metrics.dynamic_depth c)
    (fst (feedforward c));
  List.iter
    (fun seg ->
      Format.fprintf fmt
        "@,  [%d,%d): %s, T %d, bound end %d peak %d, nondet %d" seg.start
        seg.stop
        (if seg.clifford then "clifford" else "non-clifford")
        seg.t_count seg.log2_bound_end seg.log2_bound_peak seg.nondet)
    s.segments;
  Format.fprintf fmt "@]"

let to_string c s = Format.asprintf "%a" (pp c) s
