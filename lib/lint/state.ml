open Circuit

type t = {
  qubits : Absdom.Qubit.t array;
  bits : Absdom.Bit.t array;
  rel : Reldom.t;
}

let init ~num_qubits ~num_bits =
  {
    qubits = Array.make num_qubits Absdom.Qubit.Zero;
    bits = Array.make num_bits Absdom.Bit.Unwritten;
    rel = Reldom.init ~num_qubits ~num_bits;
  }

let copy s = { s with qubits = Array.copy s.qubits; bits = Array.copy s.bits }
let qubit s q = s.qubits.(q)
let bit s b = s.bits.(b)
let rel s = s.rel

(* Branch join of the per-wire components only — the callers below
   join two states sharing one [rel] and then step it relationally, so
   computing the (expensive) [Reldom.join] here would be wasted. *)
let join_wires a b =
  {
    qubits = Array.map2 Absdom.Qubit.join a.qubits b.qubits;
    bits = Array.map2 Absdom.Bit.join a.bits b.bits;
    rel = a.rel;
  }

type cond_status = Holds | Fails | Unknown

let cond_status s (c : Instruction.cond) =
  let contradictory =
    List.exists (fun (b, v) -> v && List.mem (b, false) c.bits) c.bits
  in
  if contradictory then Fails
  else
    let test (b, v) =
      match s.bits.(b) with
      | Absdom.Bit.Known x -> if x = v then `T else `F
      | Absdom.Bit.Written -> (
          (* the relational rows may pin a written bit the per-bit
             lattice lost track of *)
          match Reldom.implied_bit s.rel b with
          | Some x -> if x = v then `T else `F
          | None -> `U)
      | Absdom.Bit.Unwritten -> `U
    in
    let statuses = List.map test c.bits in
    if List.mem `F statuses then Fails
    else if List.for_all (fun x -> x = `T) statuses then Holds
    else Unknown

(* Every operand of a gate is physically driven even when the gate
   provably does not fire (controlled-phase kicks back on controls), so
   the freshly-measured flag is consumed on all of them. *)
let apply_app s (a : Instruction.app) =
  let s = copy s in
  let target_pre = s.qubits.(a.target) in
  let clear q =
    if s.qubits.(q) = Absdom.Qubit.Collapsed then
      s.qubits.(q) <- Absdom.Qubit.Basis
  in
  List.iter clear a.controls;
  clear a.target;
  let control q = s.qubits.(q) in
  let target_post =
    if a.controls = [] then Absdom.apply_gate a.gate target_pre
    else if List.exists (fun q -> control q = Absdom.Qubit.Zero) a.controls
    then (* the gate can never fire *)
      s.qubits.(a.target)
    else if List.for_all (fun q -> control q = Absdom.Qubit.One) a.controls
    then Absdom.apply_gate a.gate target_pre
    else
      (* control values statically unknown: the target may or may not
         be hit.  A permuting gate maps diagonal mixtures to diagonal
         mixtures whatever the control state; a superposing gate
         destroys all knowledge. *)
      match Absdom.classify a.gate with
      | Absdom.Diagonal -> s.qubits.(a.target)
      | Absdom.Permuting ->
          if Absdom.Qubit.is_basis_like target_pre then Absdom.Qubit.Basis
          else s.qubits.(a.target)
      | Absdom.Superposing -> Absdom.Qubit.Top
  in
  s.qubits.(a.target) <- target_post;
  s

let step s (i : Instruction.t) =
  (* the relational transfer reads the PRE-state per-qubit facts *)
  let hint q = s.qubits.(q) in
  match i with
  | Unitary a -> { (apply_app s a) with rel = Reldom.step ~hint s.rel i }
  | Conditioned (c, a) -> (
      match cond_status s c with
      | Fails -> s
      | Holds ->
          {
            (apply_app s a) with
            rel = Reldom.step ~hint s.rel (Instruction.Unitary a);
          }
      | Unknown ->
          {
            (join_wires (apply_app s a) s) with
            rel = Reldom.step ~hint s.rel i;
          })
  | Measure { qubit; bit } ->
      let rel = Reldom.step ~hint s.rel i in
      let s = copy s in
      (match s.qubits.(qubit) with
      | Absdom.Qubit.Zero -> s.bits.(bit) <- Absdom.Bit.Known false
      | Absdom.Qubit.One -> s.bits.(bit) <- Absdom.Bit.Known true
      | Absdom.Qubit.Basis | Absdom.Qubit.Collapsed | Absdom.Qubit.Superposed
      | Absdom.Qubit.Top -> (
          (* the rows may pin the outcome even when the per-qubit
             lattice lost it (e.g. across feed-forward corrections) *)
          match Reldom.implied_qubit rel qubit with
          | Some v ->
              s.bits.(bit) <- Absdom.Bit.Known v;
              s.qubits.(qubit) <-
                (if v then Absdom.Qubit.One else Absdom.Qubit.Zero)
          | None ->
              s.bits.(bit) <- Absdom.Bit.Written;
              s.qubits.(qubit) <- Absdom.Qubit.Collapsed));
      { s with rel }
  | Reset q ->
      let s = copy s in
      s.qubits.(q) <- Absdom.Qubit.Zero;
      { s with rel = Reldom.step ~hint s.rel i }
  | Barrier _ -> s
