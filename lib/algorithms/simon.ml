open Circuit

let parse_secret s =
  if s = "" then invalid_arg "Simon: empty secret";
  String.iter
    (fun c ->
      if c <> '0' && c <> '1' then invalid_arg "Simon: secret must be binary")
    s;
  if not (String.contains s '1') then
    invalid_arg "Simon: secret must be non-zero";
  String.length s

let cx c t = Instruction.Unitary (Instruction.app ~controls:[ c ] Gate.X t)

(* y_i = x_i XOR (x_j AND s_i) with j the lowest set bit of s:
   f(x) = x XOR (x_j . s) satisfies f(x) = f(x XOR s) and is 2-to-1 *)
let oracle s =
  let n = parse_secret s in
  let j = String.index s '1' in
  List.init n (fun i -> cx i (n + i))
  @ List.filter_map
      (fun i -> if s.[i] = '1' then Some (cx j (n + i)) else None)
      (List.init n (fun i -> i))

let circuit s =
  let n = parse_secret s in
  let roles =
    Array.init (2 * n) (fun q -> if q < n then Circ.Data else Circ.Answer)
  in
  let b = Circ.Builder.make ~roles ~num_bits:n () in
  for q = 0 to n - 1 do
    Circ.Builder.h b q
  done;
  Circ.Builder.add_list b (oracle s);
  for q = 0 to n - 1 do
    Circ.Builder.h b q
  done;
  Circ.Builder.build b

let measured_circuit s =
  let n = parse_secret s in
  let c = circuit s in
  Circ.create ~roles:(Circ.roles c) ~num_bits:n
    (Circ.instructions c
    @ List.init n (fun q -> Instruction.Measure { qubit = q; bit = q }))

let sample_constraints ?(seed = 0x51707) ~runs ~dynamic s =
  let n = parse_secret s in
  let c = circuit s in
  let rng = Random.State.make [| seed |] in
  if dynamic then begin
    let r = Dqc.Transform.transform c in
    List.init runs (fun _ ->
        let st = Sim.Statevector.run ~rng r.circuit in
        Sim.Statevector.register st land ((1 lsl n) - 1))
  end
  else begin
    let measured =
      Circ.create ~roles:(Circ.roles c) ~num_bits:n
        (Circ.instructions c
        @ List.init n (fun q -> Instruction.Measure { qubit = q; bit = q }))
    in
    List.init runs (fun _ ->
        let st = Sim.Statevector.run ~rng measured in
        Sim.Statevector.register st)
  end

let recover_secret ?(seed = 0x51707) ~dynamic s =
  let n = parse_secret s in
  let constraints = sample_constraints ~seed ~runs:200 ~dynamic s in
  (* accumulate until the nullspace is 1-dimensional *)
  let rec go acc = function
    | [] -> None
    | y :: rest -> (
        let acc = y :: acc in
        match Gf2.nullspace ~width:n acc with
        | [ secret ] when secret <> 0 -> Some secret
        | _ -> go acc rest)
  in
  go [] constraints
