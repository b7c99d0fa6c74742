let answer_bit num_data k = num_data + k

(* The prepared circuit may have gained extra Data-role scratch qubits
   (the DQC-shaped MCT reduction); compare only over the bits of data
   qubits that exist in the original circuit, plus the answer bits. *)
let shared_bits c (r : Transform.result) =
  let num_data = List.length r.data_bit in
  List.filter_map
    (fun (q, bit) -> if q < Circuit.Circ.num_qubits c then Some bit else None)
    r.data_bit
  @ List.mapi (fun k (_ : int * int) -> answer_bit num_data k) r.answer_phys

let traditional_distribution c (r : Transform.result) =
  let num_data = List.length r.data_bit in
  let measures =
    List.filter (fun (q, _) -> q < Circuit.Circ.num_qubits c) r.data_bit
    @ List.mapi (fun k (q, _) -> (q, answer_bit num_data k)) r.answer_phys
  in
  Sim.Dist.marginal ~bits:(shared_bits c r)
    (Sim.Exact.measured_distribution ~measures c)

let dynamic_distribution ?relative_to (r : Transform.result) =
  let num_data = List.length r.data_bit in
  let measures =
    List.mapi (fun k (_, phys) -> (phys, answer_bit num_data k)) r.answer_phys
  in
  let full = Sim.Exact.measured_distribution ~measures r.circuit in
  match relative_to with
  | None -> full
  | Some c -> Sim.Dist.marginal ~bits:(shared_bits c r) full

let tv_distance c r =
  Sim.Dist.tv_distance
    (traditional_distribution c r)
    (dynamic_distribution ~relative_to:c r)

let equivalent ?(eps = 1e-9) c r = tv_distance c r <= eps

let sampled_tv_distance c (r : Transform.result) =
  let num_data = List.length r.data_bit in
  let trad_measures =
    List.filter (fun (q, _) -> q < Circuit.Circ.num_qubits c) r.data_bit
    @ List.mapi (fun k (q, _) -> (q, answer_bit num_data k)) r.answer_phys
  in
  let dyn_measures =
    List.mapi (fun k (_, phys) -> (phys, answer_bit num_data k)) r.answer_phys
  in
  let bits = shared_bits c r in
  let empirical measures circuit =
    Sim.Dist.marginal ~bits
      (Sim.Runner.to_dist
         (Sim.Backend.run_measured ~seed:0x5A3D ~shots:4096 ~measures circuit))
  in
  Sim.Dist.tv_distance (empirical trad_measures c)
    (empirical dyn_measures r.circuit)
