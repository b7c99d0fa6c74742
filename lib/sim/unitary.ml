open Circuit

let default_max_qubits = 12

let check_unitary_only c =
  List.iter
    (fun (i : Instruction.t) ->
      match i with
      | Unitary _ | Barrier _ -> ()
      | Conditioned _ | Measure _ | Reset _ ->
          invalid_arg "Unitary.of_circuit: non-unitary instruction")
    (Circ.instructions c)

(* Column k of the unitary is the circuit applied to basis state |k>.
   The instruction list is compiled once ([Program]) and the fused op
   array replayed per column, through the dense engine instance — the
   extractor needs all 2^n columns, so the dense representation is the
   right one regardless of what engine later executes the circuit. *)
module E = Statevector.Dense_engine

let of_instrs ?(max_qubits = default_max_qubits) ~n instrs =
  if n > max_qubits then invalid_arg "Unitary: too many qubits";
  let dim = 1 lsl n in
  let m = Linalg.Cmat.make dim dim in
  let program = Program.compile_instructions ~num_qubits:n ~num_bits:0 instrs in
  for k = 0 to dim - 1 do
    let st = E.create n ~num_bits:0 in
    (* start in |k>: flip the set bits *)
    for q = 0 to n - 1 do
      if Bits.get k q then E.flip st q
    done;
    E.exec ~random:Program.no_random st program;
    let v = Statevector.amplitudes st in
    for r = 0 to dim - 1 do
      Linalg.Cmat.set m r k (Linalg.Cvec.get v r)
    done
  done;
  m

let of_circuit ?max_qubits c =
  check_unitary_only c;
  of_instrs ?max_qubits ~n:(Circ.num_qubits c) (Circ.instructions c)

let of_app ~n app = of_instrs ~n [ Instruction.Unitary app ]

let equivalent ?max_qubits ?(up_to_phase = true) a b =
  Circ.num_qubits a = Circ.num_qubits b
  &&
  let ua = of_circuit ?max_qubits a and ub = of_circuit ?max_qubits b in
  if up_to_phase then Linalg.Cmat.approx_equal_up_to_phase ua ub
  else Linalg.Cmat.approx_equal ua ub
