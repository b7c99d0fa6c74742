open Circuit

type t = Measure_all | Measures of (int * int) list

let measure_all = Measure_all
let of_pairs pairs = Measures pairs

let to_pairs ~num_qubits = function
  | Measure_all -> List.init num_qubits (fun q -> (q, q))
  | Measures pairs -> pairs

let width plan c =
  let pairs = to_pairs ~num_qubits:(Circ.num_qubits c) plan in
  List.fold_left (fun acc (_, b) -> max acc (b + 1)) (Circ.num_bits c) pairs

let instrument plan c =
  match to_pairs ~num_qubits:(Circ.num_qubits c) plan with
  | [] -> c
  | pairs ->
      let extra =
        List.map (fun (qubit, bit) -> Instruction.Measure { qubit; bit }) pairs
      in
      Circ.create ~roles:(Circ.roles c) ~num_bits:(width plan c)
        (Circ.instructions c @ extra)
