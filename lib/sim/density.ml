open Circuit

let max_qubits = 8

type t = {
  n : int;
  num_bits : int;
  (* register value -> unnormalized conditional density matrix *)
  branches : (int, Linalg.Cmat.t) Hashtbl.t;
}

let create n ~num_bits =
  if n < 0 || n > max_qubits then
    invalid_arg
      (Printf.sprintf "Density.create: %d qubits (max %d)" n max_qubits);
  let branches = Hashtbl.create 4 in
  let dim = 1 lsl n in
  let rho = Linalg.Cmat.make dim dim in
  Linalg.Cmat.set rho 0 0 Complex.one;
  Hashtbl.replace branches 0 rho;
  { n; num_bits; branches }

let add_branch branches reg rho =
  match Hashtbl.find_opt branches reg with
  | Some prev -> Hashtbl.replace branches reg (Linalg.Cmat.add prev rho)
  | None -> Hashtbl.replace branches reg rho

(* rho -> U rho U^dag *)
let conjugate u rho =
  Linalg.Cmat.mul u (Linalg.Cmat.mul rho (Linalg.Cmat.adjoint u))

(* embed a 1-qubit gate (or Pauli) on qubit q *)
let embedded st g q = Unitary.of_app ~n:st.n (Instruction.app g q)

let embedded_app st app = Unitary.of_app ~n:st.n app

(* projector onto qubit q = outcome, as a (non-unitary) matrix *)
let projector st q outcome =
  let dim = 1 lsl st.n in
  let p = Linalg.Cmat.make dim dim in
  let bit = 1 lsl q in
  for k = 0 to dim - 1 do
    if (k land bit <> 0) = outcome then Linalg.Cmat.set p k k Complex.one
  done;
  p

let map_branches st f =
  let updated = Hashtbl.create (Hashtbl.length st.branches) in
  Hashtbl.iter
    (fun reg rho -> List.iter (fun (reg', rho') -> add_branch updated reg' rho') (f reg rho))
    st.branches;
  Hashtbl.reset st.branches;
  Hashtbl.iter (Hashtbl.replace st.branches) updated

(* Kraus channel sum_k K rho K^dag applied in place on every branch *)
let apply_channel st kraus =
  map_branches st (fun reg rho ->
      [ (reg, List.fold_left
             (fun acc k -> Linalg.Cmat.add acc (conjugate k rho))
             (Linalg.Cmat.make (1 lsl st.n) (1 lsl st.n))
             kraus) ])

let scale_mat a m = Linalg.Cmat.scale (Linalg.Complex_ext.of_float a) m

let depol_kraus st ~p q =
  let id = Linalg.Cmat.identity (1 lsl st.n) in
  scale_mat (sqrt (1. -. p)) id
  :: List.map
       (fun g -> scale_mat (sqrt (p /. 3.)) (embedded st g q))
       Gate.[ X; Y; Z ]

let channel_on_rho st kraus rho =
  List.fold_left
    (fun acc k -> Linalg.Cmat.add acc (conjugate k rho))
    (Linalg.Cmat.make (1 lsl st.n) (1 lsl st.n))
    kraus

let depolarize st ~p q =
  if p > 0. then apply_channel st (depol_kraus st ~p q)

(* embed the 2x2 amplitude-damping Kraus pair on qubit q *)
let amp_damp_kraus st ~gamma q =
  let dim = 1 lsl st.n in
  let bit = 1 lsl q in
  let k0 = Linalg.Cmat.make dim dim and k1 = Linalg.Cmat.make dim dim in
  for idx = 0 to dim - 1 do
    if idx land bit = 0 then begin
      Linalg.Cmat.set k0 idx idx Complex.one;
      (* |0><1| on qubit q *)
      Linalg.Cmat.set k1 idx (idx lor bit)
        (Linalg.Complex_ext.of_float (sqrt gamma))
    end
    else
      Linalg.Cmat.set k0 idx idx
        (Linalg.Complex_ext.of_float (sqrt (1. -. gamma)))
  done;
  [ k0; k1 ]

let amp_damp st ~gamma q =
  if gamma > 0. then apply_channel st (amp_damp_kraus st ~gamma q)

let dephase st ~p q =
  if p > 0. then begin
    let id = Linalg.Cmat.identity (1 lsl st.n) in
    let kraus =
      [
        scale_mat (sqrt (1. -. p)) id;
        scale_mat (sqrt p) (embedded st Gate.Z q);
      ]
    in
    apply_channel st kraus
  end

let apply_unitary st (model : Noise.model) (app : Instruction.app) =
  let u = embedded_app st app in
  map_branches st (fun reg rho -> [ (reg, conjugate u rho) ]);
  let p = if app.controls = [] then model.p_depol1 else model.p_depol2 in
  List.iter
    (fun q ->
      depolarize st ~p q;
      amp_damp st ~gamma:model.p_amp_damp q)
    (app.controls @ [ app.target ])

let apply_conditioned st (model : Noise.model) cond (app : Instruction.app) =
  (* feed-forward latency penalty, charged whether or not the gate fires *)
  (match model.feedforward_scope with
  | `Target -> dephase st ~p:model.p_feedforward_z app.target
  | `All_qubits ->
      for q = 0 to st.n - 1 do
        dephase st ~p:model.p_feedforward_z q
      done);
  let u = embedded_app st app in
  (* gate noise applies only on the branches where the gate fired *)
  let p = if app.controls = [] then model.p_depol1 else model.p_depol2 in
  let fired_noise rho =
    if p > 0. then
      List.fold_left
        (fun acc q -> channel_on_rho st (depol_kraus st ~p q) acc)
        rho
        (app.controls @ [ app.target ])
    else rho
  in
  map_branches st (fun reg rho ->
      if Instruction.cond_holds cond reg then
        [ (reg, fired_noise (conjugate u rho)) ]
      else [ (reg, rho) ])

let measure st (model : Noise.model) ~qubit ~bit =
  let p0 = projector st qubit false and p1 = projector st qubit true in
  let pflip = model.p_meas_flip in
  map_branches st (fun reg rho ->
      let rho0 = conjugate p0 rho and rho1 = conjugate p1 rho in
      let record outcome rho =
        let correct = Bits.set reg bit outcome in
        let flipped = Bits.set reg bit (not outcome) in
        if pflip > 0. then
          [ (correct, scale_mat (1. -. pflip) rho); (flipped, scale_mat pflip rho) ]
        else [ (correct, rho) ]
      in
      record false rho0 @ record true rho1)

let reset st (model : Noise.model) q =
  let p0 = projector st q false and p1 = projector st q true in
  let x = embedded st Gate.X q in
  map_branches st (fun reg rho ->
      let settled =
        Linalg.Cmat.add (conjugate p0 rho) (conjugate x (conjugate p1 rho))
      in
      [ (reg, settled) ]);
  if model.p_reset_flip > 0. then begin
    let id = Linalg.Cmat.identity (1 lsl st.n) in
    apply_channel st
      [
        scale_mat (sqrt (1. -. model.p_reset_flip)) id;
        scale_mat (sqrt model.p_reset_flip) x;
      ]
  end

let run_instruction st model (i : Instruction.t) =
  match i with
  | Unitary app -> apply_unitary st model app
  | Conditioned (cond, app) -> apply_conditioned st model cond app
  | Measure { qubit; bit } -> measure st model ~qubit ~bit
  | Reset q -> reset st model q
  | Barrier _ -> ()

let run ?(model = Noise.ideal) c =
  Noise.validate model;
  let st = create (Circ.num_qubits c) ~num_bits:(Circ.num_bits c) in
  List.iter (run_instruction st model) (Circ.instructions c);
  st

let branch_trace rho =
  let acc = ref 0. in
  for k = 0 to Linalg.Cmat.rows rho - 1 do
    acc := !acc +. (Linalg.Cmat.get rho k k).Complex.re
  done;
  !acc

let register_distribution st =
  let pairs =
    Hashtbl.fold (fun reg rho acc -> (reg, branch_trace rho) :: acc) st.branches []
  in
  Dist.create ~width:st.num_bits pairs

let measured_distribution ?model ~measures c =
  let extra =
    List.map (fun (qubit, bit) -> Instruction.Measure { qubit; bit }) measures
  in
  let max_bit =
    List.fold_left (fun acc (_, b) -> max acc (b + 1)) (Circ.num_bits c)
      measures
  in
  (* terminal readout is taken ideal: suppress the flip error on the
     appended measurements by running them on the ideal model after the
     noisy body *)
  let model = Option.value ~default:Noise.ideal model in
  let body =
    Circ.create ~roles:(Circ.roles c) ~num_bits:max_bit (Circ.instructions c)
  in
  let st = run ~model body in
  List.iter (run_instruction st Noise.ideal) extra;
  register_distribution st

let total_rho st =
  let dim = 1 lsl st.n in
  Hashtbl.fold
    (fun _ rho acc -> Linalg.Cmat.add acc rho)
    st.branches (Linalg.Cmat.make dim dim)

let trace st = branch_trace (total_rho st)
