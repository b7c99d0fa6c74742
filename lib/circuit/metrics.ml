type stats = {
  unitary : int;
  conditioned : int;
  measure : int;
  reset : int;
  barrier : int;
  two_qubit : int;
  multi_control : int;
}

let stats c =
  let z =
    {
      unitary = 0;
      conditioned = 0;
      measure = 0;
      reset = 0;
      barrier = 0;
      two_qubit = 0;
      multi_control = 0;
    }
  in
  let count acc (i : Instruction.t) =
    match i with
    | Unitary a ->
        let acc = { acc with unitary = acc.unitary + 1 } in
        (match List.length a.controls with
        | 0 -> acc
        | 1 -> { acc with two_qubit = acc.two_qubit + 1 }
        | _ -> { acc with multi_control = acc.multi_control + 1 })
    | Conditioned _ -> { acc with conditioned = acc.conditioned + 1 }
    | Measure _ -> { acc with measure = acc.measure + 1 }
    | Reset _ -> { acc with reset = acc.reset + 1 }
    | Barrier _ -> { acc with barrier = acc.barrier + 1 }
  in
  List.fold_left count z (Circ.instructions c)

let gate_count c =
  List.length
    (List.filter Instruction.counts_as_gate (Circ.instructions c))

let count_apps c pred =
  List.length
    (List.filter
       (fun (i : Instruction.t) ->
         match i with
         | Unitary a | Conditioned (_, a) -> pred a
         | Measure _ | Reset _ | Barrier _ -> false)
       (Circ.instructions c))

let t_count c =
  count_apps c (fun (a : Instruction.app) ->
      match a.gate with
      | Gate.T | Gate.Tdg -> true
      | Gate.H | Gate.X | Gate.Y | Gate.Z | Gate.S | Gate.Sdg | Gate.V
      | Gate.Vdg | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Phase _ ->
          false)

(* ASAP layering: an instruction lands on layer
   1 + max(level of its qubits, level of the bits it reads/writes).
   Instructions excluded from depth still advance their qubit levels'
   *ordering* constraints?  No: the paper simply does not count final
   measurements, so excluded instructions are transparent (they take no
   layer).  Excluded measure still publishes its bit at the current
   qubit level so a later conditioned gate stays ordered. *)
let depth ?(include_measure = true) c =
  let qlevel = Array.make (max 1 (Circ.num_qubits c)) 0 in
  let blevel = Array.make (max 1 (Circ.num_bits c)) 0 in
  let level_of (i : Instruction.t) =
    let qs = Instruction.qubits i and bs = Instruction.bits i in
    let m = List.fold_left (fun acc q -> max acc qlevel.(q)) 0 qs in
    List.fold_left (fun acc b -> max acc blevel.(b)) m bs
  in
  let place i =
    let included =
      match (i : Instruction.t) with
      | Unitary _ | Conditioned _ | Reset _ -> true
      | Measure _ -> include_measure
      | Barrier _ -> false
    in
    let base = level_of i in
    let lvl = if included then base + 1 else base in
    List.iter (fun q -> qlevel.(q) <- lvl) (Instruction.qubits i);
    (* measurement publishes its output bit; conditioned reads only *)
    match (i : Instruction.t) with
    | Measure { bit; _ } -> blevel.(bit) <- lvl
    | Unitary _ | Conditioned _ | Reset _ | Barrier _ -> ()
  in
  List.iter place (Circ.instructions c);
  let m = Array.fold_left max 0 qlevel in
  Array.fold_left max m blevel

let traditional_depth c = depth ~include_measure:false c
let dynamic_depth c = depth c

type timing = {
  t_1q : float;
  t_2q : float;
  t_measure : float;
  t_reset : float;
  t_feedforward : float;
}

let default_timing =
  { t_1q = 35.; t_2q = 300.; t_measure = 700.; t_reset = 840.; t_feedforward = 660. }

(* ASAP scheduling with real durations: every instruction starts when
   its qubits are free (and, for conditioned gates, its bits have been
   written plus the feed-forward latency) and occupies its qubits for
   its duration; measurements publish their bit at their finish time. *)
let duration c =
  let timing = default_timing in
  let qfree = Array.make (max 1 (Circ.num_qubits c)) 0. in
  let bready = Array.make (max 1 (Circ.num_bits c)) 0. in
  let place (i : Instruction.t) =
    let qs = Instruction.qubits i in
    let qubit_ready = List.fold_left (fun acc q -> Float.max acc qfree.(q)) 0. qs in
    let start, dur =
      match i with
      | Unitary { controls = []; _ } -> (qubit_ready, timing.t_1q)
      | Unitary _ -> (qubit_ready, timing.t_2q)
      | Conditioned (cond, app) ->
          let bits_ready =
            List.fold_left
              (fun acc (b, _) -> Float.max acc bready.(b))
              0. cond.Instruction.bits
          in
          let start =
            Float.max qubit_ready (bits_ready +. timing.t_feedforward)
          in
          (start, if app.Instruction.controls = [] then timing.t_1q else timing.t_2q)
      | Measure _ -> (qubit_ready, timing.t_measure)
      | Reset _ -> (qubit_ready, timing.t_reset)
      | Barrier _ -> (qubit_ready, 0.)
    in
    let finish = start +. dur in
    List.iter (fun q -> qfree.(q) <- finish) qs;
    match i with
    | Measure { bit; _ } -> bready.(bit) <- finish
    | Unitary _ | Conditioned _ | Reset _ | Barrier _ -> ()
  in
  List.iter place (Circ.instructions c);
  let m = Array.fold_left Float.max 0. qfree in
  Array.fold_left Float.max m bready
