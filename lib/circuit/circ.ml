type role = Data | Ancilla | Answer

type t = {
  roles : role array;
  num_bits : int;
  instrs : Instruction.t list;
}

let check_instr ~num_qubits ~num_bits i =
  if not (Instruction.well_formed ~num_qubits ~num_bits i) then
    invalid_arg
      (Printf.sprintf "Circ.create: ill-formed instruction %s (%d qubits, %d bits)"
         (Instruction.to_string i) num_qubits num_bits)

let max_bits = 62
let max_qubits = 4096

let create ~roles ~num_bits instrs =
  if num_bits < 0 || num_bits > max_bits then
    invalid_arg
      (Printf.sprintf "Circ.create: %d classical bits (register is an int, max %d)"
         num_bits max_bits);
  let num_qubits = Array.length roles in
  List.iter (check_instr ~num_qubits ~num_bits) instrs;
  { roles = Array.copy roles; num_bits; instrs }

let num_qubits c = Array.length c.roles
let num_bits c = c.num_bits
let role c q = c.roles.(q)
let roles c = Array.copy c.roles
let instructions c = c.instrs

let qubits_with_role c r =
  let acc = ref [] in
  for q = Array.length c.roles - 1 downto 0 do
    if c.roles.(q) = r then acc := q :: !acc
  done;
  !acc

let append c instrs =
  let num_qubits = num_qubits c in
  List.iter (check_instr ~num_qubits ~num_bits:c.num_bits) instrs;
  { c with instrs = c.instrs @ instrs }

let concat a b =
  if a.roles <> b.roles || a.num_bits <> b.num_bits then
    invalid_arg "Circ.concat: shape mismatch";
  { a with instrs = a.instrs @ b.instrs }

let map_instructions f c =
  { c with instrs = List.concat_map f c.instrs }

let equal a b =
  a.roles = b.roles && a.num_bits = b.num_bits
  && List.length a.instrs = List.length b.instrs
  && List.for_all2 Instruction.equal a.instrs b.instrs

let role_to_string = function
  | Data -> "data"
  | Ancilla -> "ancilla"
  | Answer -> "answer"

let pp fmt c =
  Format.fprintf fmt "@[<v>circuit: %d qubits, %d bits@," (num_qubits c)
    c.num_bits;
  Array.iteri
    (fun q r -> Format.fprintf fmt "  q%d : %s@," q (role_to_string r))
    c.roles;
  List.iter (fun i -> Format.fprintf fmt "  %a@," Instruction.pp i) c.instrs;
  Format.fprintf fmt "@]"

module Builder = struct
  type circuit = t

  type t = {
    b_roles : role array;
    b_num_bits : int;
    mutable rev_instrs : Instruction.t list;
  }

  let make ~roles ~num_bits () =
    if num_bits < 0 || num_bits > max_bits then
      invalid_arg
        (Printf.sprintf
           "Circ.Builder.make: %d classical bits (register is an int, max %d)"
           num_bits max_bits);
    { b_roles = Array.copy roles; b_num_bits = num_bits; rev_instrs = [] }

  let add b i =
    check_instr ~num_qubits:(Array.length b.b_roles) ~num_bits:b.b_num_bits i;
    b.rev_instrs <- i :: b.rev_instrs

  let add_list b is = List.iter (add b) is
  let gate b g q = add b (Instruction.Unitary (Instruction.app g q))
  let h b q = gate b Gate.H q
  let x b q = gate b Gate.X q
  let z b q = gate b Gate.Z q

  let cgate b g c t =
    add b (Instruction.Unitary (Instruction.app ~controls:[ c ] g t))

  let cx b c t = cgate b Gate.X c t
  let cv b c t = cgate b Gate.V c t
  let cvdg b c t = cgate b Gate.Vdg c t

  let ccx b c1 c2 t =
    add b (Instruction.Unitary (Instruction.app ~controls:[ c1; c2 ] Gate.X t))

  let measure b ~qubit ~bit = add b (Instruction.Measure { qubit; bit })
  let reset b q = add b (Instruction.Reset q)

  let conditioned b ~bit g q =
    add b
      (Instruction.Conditioned
         (Instruction.cond_bit bit true, Instruction.app g q))

  let barrier b qs = add b (Instruction.Barrier qs)

  let build b : circuit =
    {
      roles = Array.copy b.b_roles;
      num_bits = b.b_num_bits;
      instrs = List.rev b.rev_instrs;
    }
end
