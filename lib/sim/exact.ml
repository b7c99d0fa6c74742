type leaf = {
  probability : float;
  register : int;
  state : Statevector.t;
}

let default_prune = 1e-12

(* Depth-first enumeration over the compiled op array on engine [E]:
   unitaries and conditioned gates act in place; measure and reset ops
   fork into the outcomes with Born probability above [prune].  Ops
   from [stop] on are left to [at_stop], which receives each branch's
   state and probability in DFS order (outcome 0 before 1). *)
let enumerate (type s) (module E : Engine.S with type state = s) ~prune ~stop
    program (at_stop : s -> float -> unit) =
  if not (prune >= 0.) then invalid_arg "Exact: negative prune threshold";
  let kinds = Program.kernels program in
  let rec go st prob k =
    if prob > prune then
      if k = stop then begin
        Obs.incr "sim.exact.leaves";
        at_stop st prob
      end
      else
        match kinds.(k) with
        | Program.Kmeasure { qubit; bit } ->
            fork st prob qubit (k + 1) ~on_branch:(fun st' outcome ->
                E.set_bit st' bit outcome)
        | Program.Kreset q ->
            fork st prob q (k + 1) ~on_branch:(fun st' outcome ->
                if outcome then E.flip st' q)
        | Program.Kx _ | Program.Kh _ | Program.Kphase _ | Program.Kdiag _
        | Program.Ku2 _ | Program.Kcond _ ->
            E.apply st (Program.get program k);
            go st prob (k + 1)
  and fork st prob qubit rest ~on_branch =
    let p1 = E.prob_one st qubit in
    let branch outcome p st' =
      if p *. prob > prune then begin
        ignore (E.project st' qubit outcome);
        on_branch st' outcome;
        go st' (prob *. p) rest
      end
    in
    (* reuse [st] for the second branch to halve copying *)
    if p1 *. prob > prune && (1. -. p1) *. prob > prune then begin
      branch false (1. -. p1) (E.copy st);
      branch true p1 st
    end
    else if p1 *. prob > prune then branch true p1 st
    else branch false (1. -. p1) st
  in
  let n = Program.num_qubits program in
  Obs.with_span "exact.enumerate"
    ~attrs:[ ("qubits", string_of_int n); ("engine", E.name) ]
    (fun () ->
      go (E.create n ~num_bits:(Program.num_bits program)) 1.0 0)

let leaves ?(prune = default_prune) c =
  let program = Program.compile c in
  let acc = ref [] in
  enumerate
    (module Statevector.Dense_engine)
    ~prune ~stop:(Program.length program) program
    (fun st probability ->
      acc :=
        { probability; register = State.register st; state = st } :: !acc);
  List.rev !acc

(* The measurements that end the program, in program order, and the
   index of the first. *)
let trailing_measurements program =
  let rec back k run =
    if k = 0 then (k, run)
    else
      match Program.kernel (Program.get program (k - 1)) with
      | Program.Kmeasure { qubit; bit } -> back (k - 1) ((qubit, bit) :: run)
      | Program.Kx _ | Program.Kh _ | Program.Kphase _ | Program.Kdiag _
      | Program.Ku2 _ | Program.Kreset _ | Program.Kcond _ ->
          (k, run)
  in
  back (Program.length program) []

(* A trailing run of measurements is read in one pass over the
   branch's probabilities instead of forking on each.  The measured
   qubits are ordered so the first one measured is the outcome's most
   significant bit: ascending outcomes are then the order the forks
   would have visited, and each outcome is pruned as its fork leaf
   would have been. *)
let program_distribution ?(prune = default_prune) ~engine program =
  let (module E : Engine.S) = engine in
  let stop, run = trailing_measurements program in
  let pairs = ref [] in
  let emit register p = pairs := (register, p) :: !pairs in
  let at_stop =
    match run with
    | [] -> fun st prob -> emit (E.register st) prob
    | _ ->
        let qubits =
          List.fold_left
            (fun qs (q, _) -> if List.mem q qs then qs else q :: qs)
            [] run
          |> Array.of_list
        in
        let slot q =
          let rec find j = if qubits.(j) = q then j else find (j + 1) in
          find 0
        in
        let writes = List.map (fun (q, bit) -> (slot q, bit)) run in
        fun st prob ->
          let register = E.register st in
          List.iter
            (fun (outcome, p) ->
              let p = prob *. p in
              if p > prune then
                emit
                  (List.fold_left
                     (fun r (j, bit) -> Bits.set r bit (Bits.get outcome j))
                     register writes)
                  p)
            (E.outcome_probabilities st qubits)
  in
  enumerate (module E) ~prune ~stop program at_stop;
  Dist.create ~width:(Program.num_bits program) (List.rev !pairs)

let register_distribution ?prune c =
  program_distribution ?prune
    ~engine:(module Statevector.Dense_engine : Engine.S)
    (Program.compile c)

let plan_distribution ?prune ~plan c =
  register_distribution ?prune (Measurement_plan.instrument plan c)

let measured_distribution ?prune ~measures c =
  plan_distribution ?prune ~plan:(Measurement_plan.of_pairs measures) c

let measure_all_distribution ?prune c =
  plan_distribution ?prune ~plan:Measurement_plan.measure_all c
