let default_prune = 1e-12

(* The measurements that end the program, in program order, and the
   index of the first. *)
let trailing_measurements program =
  let rec back k run =
    if k = 0 then (k, run)
    else
      match Program.get program (k - 1) with
      | Program.Kmeasure { qubit; bit } -> back (k - 1) ((qubit, bit) :: run)
      | Program.Kx _ | Program.Kh _ | Program.Kphase _ | Program.Kdiag _
      | Program.Ku2 _ | Program.Kreset _ | Program.Kcond _ ->
          (k, run)
  in
  back (Program.length program) []

(* The walk stops at the trailing run of measurements, which each leaf
   reads in one pass over its probabilities instead of forking on each.
   The measured qubits are ordered so the first one measured is the
   outcome's most significant bit: ascending outcomes are then the
   order the forks would have visited, and each outcome is pruned as
   its fork leaf would have been. *)
let program_distribution ?(prune = default_prune) ~engine program =
  let (module E : Engine.Core) = engine in
  let stop, run = trailing_measurements program in
  let pairs = ref [] in
  let emit register p = pairs := (register, p) :: !pairs in
  let leaf =
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
  let n = Program.num_qubits program in
  Obs.with_span "exact.enumerate"
    ~attrs:[ ("qubits", string_of_int n); ("engine", E.name) ]
    (fun () ->
      Walk.probabilities (module E) ~prune (Walk.program ~stop program)
        (E.create n ~num_bits:(Program.num_bits program))
        leaf);
  Dist.create ~width:(Program.num_bits program) (List.rev !pairs)

let register_distribution ?prune c =
  program_distribution ?prune
    ~engine:(module Statevector.Dense_engine : Engine.Core)
    (Program.compile c)

let plan_distribution ?prune ~plan c =
  register_distribution ?prune (Measurement_plan.instrument plan c)

let measured_distribution ?prune ~measures c =
  plan_distribution ?prune ~plan:(Measurement_plan.of_pairs measures) c

let measure_all_distribution ?prune c =
  plan_distribution ?prune ~plan:Measurement_plan.measure_all c
