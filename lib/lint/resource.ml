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

type live_range = { first : int; last : int }

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
  dynamic_depth : int;
  feedforward_depth : int;
  usage_counts : int array;
  live_ranges : live_range option array;
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

(* Per-qubit bookkeeping over an instruction's qubit list, written as
   plain recursion: the analyzer runs on every compile, so its inner
   loop allocates no closures. *)

(* whether [qs] is free of repeats, stamping each qubit with [i] *)
let rec stamp last i = function
  | [] -> true
  | q :: qs ->
      let fresh = last.(q) <> i in
      last.(q) <- i;
      fresh && stamp last i qs

let rec touch ~usage ~first_use ~last_use i = function
  | [] -> ()
  | q :: qs ->
      usage.(q) <- usage.(q) + 1;
      if first_use.(q) < 0 then first_use.(q) <- i;
      last_use.(q) <- i;
      touch ~usage ~first_use ~last_use i qs

let rec max_over a acc = function
  | [] -> acc
  | q :: qs -> max_over a (max acc a.(q)) qs

let rec set_all a v = function
  | [] -> ()
  | q :: qs ->
      a.(q) <- v;
      set_all a v qs

(* ------------------------------------------------------------------ *)

let analyze_body trace =
  let c = Trace.circuit trace in
  let m = Trace.length trace in
  let nq = Circ.num_qubits c in
  let bound =
    (* each index is queried both as a segment boundary and as a peak
       candidate; memoize so the per-index bound is computed once *)
    let memo = Array.make (m + 1) (-1) in
    fun i ->
      if memo.(i) >= 0 then memo.(i)
      else begin
        let v = Reldom.log2_support_bound (State.rel (Trace.pre trace i)) in
        memo.(i) <- v;
        v
      end
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
     analysis cannot pin from the pre-state *)
  let nondet_at i =
    match Trace.instr trace i with
    | Instruction.Measure { qubit; _ } | Instruction.Reset qubit ->
        if qubit_value (Trace.pre trace i) qubit = None then 1 else 0
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
        and peak = ref (bound start) in
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
          peak := max !peak (bound (i + 1))
        done;
        {
          start;
          stop;
          clifford = !clifford;
          t_count = !t_count;
          non_clifford = !non_clifford;
          log2_bound_end = bound stop;
          log2_bound_peak = !peak;
          nondet = !nondet;
        }
        :: segments rest
  in
  let segments = segments starts in
  (* dynamic depth and feed-forward critical path: longest path in the
     dependency DAG; crossing a measurement->conditioned classical edge
     counts one feed-forward hop *)
  let nb = Circ.num_bits c in
  let qdepth = Array.make nq 0
  and qff = Array.make nq 0
  and bdepth = Array.make nb 0
  and bff = Array.make nb 0 in
  let usage = Array.make nq 0 in
  let first_use = Array.make nq (-1) and last_use = Array.make nq (-1) in
  for i = 0 to m - 1 do
    let instr = Trace.instr trace i in
    let qs =
      (* a well-formed instruction names each qubit once *)
      let qs = Instruction.qubits instr in
      if stamp last_use i qs then qs else List.sort_uniq Int.compare qs
    in
    touch ~usage ~first_use ~last_use i qs;
    let qd = max_over qdepth 0 qs and qf = max_over qff 0 qs in
    match instr with
    | Instruction.Barrier _ ->
        (* synchronization only: aligns depths without adding a layer *)
        set_all qdepth qd qs;
        set_all qff qf qs
    | Instruction.Unitary _ ->
        set_all qdepth (qd + 1) qs;
        set_all qff qf qs
    | Instruction.Conditioned (cond, _) ->
        let bs = List.sort_uniq Int.compare (List.map fst cond.bits) in
        let d = max_over bdepth (qd + 1) bs in
        (* reading a measured bit into a gate is the feed-forward hop *)
        let f = 1 + max_over bff (qf - 1) bs in
        set_all qdepth d qs;
        set_all qff f qs
    | Instruction.Measure { qubit; bit } ->
        qdepth.(qubit) <- qd + 1;
        bdepth.(bit) <- qd + 1;
        bff.(bit) <- qf
    | Instruction.Reset q ->
        qdepth.(q) <- qd + 1;
        qff.(q) <- qf
  done;
  let dynamic_depth =
    max
      (Array.fold_left max 0 qdepth)
      (if nb = 0 then 0 else Array.fold_left max 0 bdepth)
  in
  let feedforward_depth =
    max (Array.fold_left max 0 qff)
      (if nb = 0 then 0 else Array.fold_left max 0 bff)
  in
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
    log2_bounds = Array.init (m + 1) bound;
    nondet_branches = sum (fun s -> s.nondet);
    forks;
    dynamic_depth;
    feedforward_depth;
    usage_counts = usage;
    live_ranges =
      Array.init nq (fun q ->
          if first_use.(q) < 0 then None
          else Some { first = first_use.(q); last = last_use.(q) });
  }

let analyze ?trace c =
  Obs.with_span "analyze.resources"
    ~attrs:[ ("qubits", string_of_int (Circ.num_qubits c)) ]
    (fun () ->
      let trace =
        match trace with
        | Some t ->
            let tc = Trace.circuit t in
            if not (tc == c || Circ.equal tc c) then
              invalid_arg "Resource.analyze: trace belongs to a different \
                           circuit";
            t
        | None -> Trace.run c
      in
      analyze_body trace)

(* ------------------------------------------------------------------ *)

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

let to_json ?name s =
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
      ("dynamic_depth", Obs.Json.Int s.dynamic_depth);
      ("feedforward_depth", Obs.Json.Int s.feedforward_depth);
      ("segments", Obs.Json.List (List.map segment_to_json s.segments));
      ( "live_ranges",
        Obs.Json.List
          (List.filter_map Fun.id
             (List.init (Array.length s.live_ranges) (fun q ->
                  match s.live_ranges.(q) with
                  | None -> None
                  | Some r ->
                      Some
                        (Obs.Json.Obj
                           [
                             ("qubit", Obs.Json.Int q);
                             ("first", Obs.Json.Int r.first);
                             ("last", Obs.Json.Int r.last);
                           ])))) );
    ]

let pp fmt s =
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
    s.dynamic_depth s.feedforward_depth;
  List.iter
    (fun seg ->
      Format.fprintf fmt
        "@,  [%d,%d): %s, T %d, bound end %d peak %d, nondet %d" seg.start
        seg.stop
        (if seg.clifford then "clifford" else "non-clifford")
        seg.t_count seg.log2_bound_end seg.log2_bound_peak seg.nondet)
    s.segments;
  Format.fprintf fmt "@]"

let to_string s = Format.asprintf "%a" pp s
