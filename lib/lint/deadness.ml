open Circuit

let qubit_value pre q =
  match State.qubit pre q with
  | Absdom.Qubit.Zero -> Some false
  | Absdom.Qubit.One -> Some true
  | Absdom.Qubit.Basis | Absdom.Qubit.Collapsed | Absdom.Qubit.Superposed
  | Absdom.Qubit.Top ->
      Reldom.implied_qubit (State.rel pre) q

let provably_zero pre q = qubit_value pre q = Some false

let bit_value pre b =
  match State.bit pre b with
  | Absdom.Bit.Known v -> Some v
  | Absdom.Bit.Unwritten -> Some false
  | Absdom.Bit.Written -> Reldom.implied_bit (State.rel pre) b

let dead_on_zero ~controlled (g : Gate.t) =
  match g with
  | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg | Gate.Phase _ -> true
  | Gate.Rz _ -> not controlled
  | Gate.H | Gate.X | Gate.Y | Gate.V | Gate.Vdg | Gate.Rx _ | Gate.Ry _ ->
      false

exception Dead

(* the controls left once those pinned to 1 drop out, physically the
   same list when none does; [Dead] when one is pinned to 0 *)
let rec live_controls pre = function
  | [] -> []
  | c :: rest as l -> (
      match qubit_value pre c with
      | Some false -> raise Dead
      | Some true -> live_controls pre rest
      | None ->
          let rest' = live_controls pre rest in
          if rest' == rest then l else c :: rest')

let simplify_app pre (a : Instruction.app) =
  match live_controls pre a.controls with
  | exception Dead -> None
  | controls ->
      if
        dead_on_zero ~controlled:(controls <> []) a.gate
        && qubit_value pre a.target = Some false
      then None
      else if controls == a.controls then Some a
      else Some { a with controls }

(* the instruction itself when its application survives unchanged *)
let witness_instr pre (i : Instruction.t) =
  let rebuild a wrap =
    match simplify_app pre a with
    | None -> None
    | Some a' -> Some (if a' == a then i else wrap a')
  in
  match i with
  | Instruction.Unitary a -> rebuild a (fun a -> Instruction.Unitary a)
  | Instruction.Conditioned (cond, a) -> (
      match State.cond_status pre cond with
      | State.Fails -> None
      | State.Holds ->
          Option.map (fun a -> Instruction.Unitary a) (simplify_app pre a)
      | State.Unknown ->
          rebuild a (fun a -> Instruction.Conditioned (cond, a)))
  | Instruction.Measure _ | Instruction.Reset _ | Instruction.Barrier _ ->
      Some i

type t = { trace : Trace.t; last : int array; first_m : int array }

let last_reference_of trace =
  let last = Array.make (Circ.num_qubits (Trace.circuit trace)) (-1) in
  Trace.iteri
    (fun i ~pre:_ (instr : Instruction.t) ->
      match instr with
      | Barrier _ -> ()
      | Unitary _ | Conditioned _ | Measure _ | Reset _ ->
          List.iter (fun q -> last.(q) <- i) (Instruction.qubits instr))
    trace;
  last

let first_measure_of trace =
  let first = Array.make (Circ.num_qubits (Trace.circuit trace)) max_int in
  Trace.iteri
    (fun i ~pre:_ (instr : Instruction.t) ->
      match instr with
      | Measure { qubit; _ } ->
          if first.(qubit) = max_int then first.(qubit) <- i
      | Unitary _ | Conditioned _ | Reset _ | Barrier _ -> ())
    trace;
  first

let of_trace trace =
  { trace; last = last_reference_of trace; first_m = first_measure_of trace }

let last_reference t = Array.copy t.last

let dead_unitary t i =
  match Trace.instr t.trace i with
  | Instruction.Unitary _ as instr ->
      let qs = Instruction.qubits instr in
      qs <> []
      && List.for_all (fun q -> t.first_m.(q) < i && t.last.(q) = i) qs
  | Instruction.Conditioned _ | Instruction.Measure _ | Instruction.Reset _
  | Instruction.Barrier _ ->
      false

let redundant_reset t i =
  match Trace.instr t.trace i with
  | Instruction.Reset q -> provably_zero (Trace.pre t.trace i) q
  | Instruction.Unitary _ | Instruction.Conditioned _ | Instruction.Measure _
  | Instruction.Barrier _ ->
      false

let dead_set t =
  let trace = t.trace in
  let n = Trace.length trace in
  (* observable at end: exactly the never-measured wires *)
  let live = Array.map (fun fm -> fm = max_int) t.first_m in
  let dead = Array.make n false in
  for i = n - 1 downto 0 do
    match Trace.instr trace i with
    | Instruction.Barrier _ -> ()
    | Instruction.Measure { qubit; _ } -> live.(qubit) <- true
    | Instruction.Reset q ->
        if live.(q) then live.(q) <- false else dead.(i) <- true
    | Instruction.Unitary a | Instruction.Conditioned (_, a) ->
        let qs = a.Instruction.target :: a.Instruction.controls in
        if List.for_all (fun q -> not live.(q)) qs then dead.(i) <- true
        else List.iter (fun q -> live.(q) <- true) qs
  done;
  dead
