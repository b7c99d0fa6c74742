open Circuit

type scope = [ `Target | `All_qubits ]

type model = {
  p_depol1 : float;
  p_depol2 : float;
  p_meas_flip : float;
  p_reset_flip : float;
  p_feedforward_z : float;
  p_amp_damp : float;
  feedforward_scope : scope;
}

let ideal =
  {
    p_depol1 = 0.;
    p_depol2 = 0.;
    p_meas_flip = 0.;
    p_reset_flip = 0.;
    p_feedforward_z = 0.;
    p_amp_damp = 0.;
    feedforward_scope = `Target;
  }

let default =
  {
    p_depol1 = 0.0005;
    p_depol2 = 0.01;
    p_meas_flip = 0.02;
    p_reset_flip = 0.01;
    p_feedforward_z = 0.04;
    p_amp_damp = 0.;
    feedforward_scope = `Target;
  }

let validate m =
  let check name p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Noise: %s = %g outside [0,1]" name p)
  in
  check "p_depol1" m.p_depol1;
  check "p_depol2" m.p_depol2;
  check "p_meas_flip" m.p_meas_flip;
  check "p_reset_flip" m.p_reset_flip;
  check "p_feedforward_z" m.p_feedforward_z;
  check "p_amp_damp" m.p_amp_damp

(* Target bit and control mask of a unitary op. *)
let layout = function
  | Program.Kx { bit; cmask; _ }
  | Program.Kh { bit; cmask; _ }
  | Program.Kphase { bit; cmask; _ }
  | Program.Kdiag { bit; cmask; _ }
  | Program.Ku2 { bit; cmask; _ } ->
      (bit, cmask)
  | Program.Kmeasure _ | Program.Kreset _ | Program.Kcond _ ->
      invalid_arg "Noise: not a unitary op"

let rec qubit_of_bit bit = if bit <= 1 then 0 else 1 + qubit_of_bit (bit lsr 1)

(* The qubits a unitary op touches, in the order its channels draw
   randomness: the controls ascending, then the target. *)
let touched ~num_qubits (bit, cmask) =
  let qs = ref [ qubit_of_bit bit ] in
  for q = num_qubits - 1 downto 0 do
    if cmask land (1 lsl q) <> 0 then qs := q :: !qs
  done;
  !qs

(* The model's channels around each compiled op, as the walk's cuts,
   in the order a shot draws them.  The lowering is 1:1, so every gate
   keeps its own injection point.  A channel of rate 0 is no cut. *)
let channels model ~num_qubits =
  let channel ?(fires = fun _ -> true) p hit =
    let p' st = if fires st then p else 0. in
    if p > 0. then [ { Walk.p = p'; hit; miss = ignore } ] else []
  in
  let pauli q rng st =
    let g =
      match Random.State.int rng 3 with 0 -> Gate.X | 1 -> Gate.Y | _ -> Gate.Z
    in
    Statevector.apply_gate st g q
  in
  (* amplitude damping, unraveled: a jump with probability gamma.P(1)
     relaxes to |0>, otherwise the no-jump operator diag(1, sqrt(1 -
     gamma)) applies and renormalizes *)
  let gamma = model.p_amp_damp in
  let no_jump =
    Linalg.Cmat.of_reim_lists
      [ [ (1., 0.); (0., 0.) ]; [ (0., 0.); (sqrt (1. -. gamma), 0.) ] ]
  in
  let damp q =
    if gamma > 0. then
      [
        {
          Walk.p = (fun st -> gamma *. State.prob_one st q);
          hit =
            (fun _ st ->
              ignore (State.project st q true);
              Statevector.apply_gate st Gate.X q);
          miss = (fun st -> Statevector.apply_kraus1 st no_jump q);
        };
      ]
    else []
  in
  let dephase q =
    channel model.p_feedforward_z (fun _ st ->
        Statevector.apply_gate st Gate.Z q)
  in
  let depol (_, cmask) = if cmask = 0 then model.p_depol1 else model.p_depol2 in
  function
  | ( Program.Kx _ | Program.Kh _ | Program.Kphase _ | Program.Kdiag _
    | Program.Ku2 _ ) as op ->
      let l = layout op in
      ( [],
        List.concat_map
          (fun q -> channel (depol l) (pauli q) @ damp q)
          (touched ~num_qubits l) )
  | Program.Kcond { mask; value; body } ->
      let ((bit, _) as l) = layout body in
      (* the feed-forward latency penalty applies whether or not the
         gate fires: the controller must wait for the classical value;
         the gate's depolarizing only when it fires *)
      let fires st = State.register st land mask = value in
      ( (match model.feedforward_scope with
        | `Target -> dephase (qubit_of_bit bit)
        | `All_qubits -> List.concat (List.init num_qubits dephase)),
        List.concat_map
          (fun q -> channel ~fires (depol l) (pauli q))
          (touched ~num_qubits l) )
  | Program.Kmeasure { bit; _ } ->
      ( [],
        channel model.p_meas_flip (fun _ st ->
            State.set_bit st bit (not (State.get_bit st bit))) )
  | Program.Kreset q ->
      ([], channel model.p_reset_flip (fun _ st -> State.flip st q))

let run_shots ?(seed = 0xD1CE) ?domains ~model ~shots c =
  validate model;
  let module E = Statevector.Dense_engine in
  let num_qubits = Circ.num_qubits c and width = Circ.num_bits c in
  let wp =
    Walk.program ~channels:(channels model ~num_qubits) (Program.compile c)
  in
  Walk.execute ?domains ~seed ~shots
    ~hold:(Walk.holds (Float.ldexp 1. num_qubits))
    ~width
    (fun b lo hi ->
      Walk.shots
        (module E)
        b wp
        (E.create num_qubits ~num_bits:width)
        lo hi
        (fun st lo hi -> Walk.tally b (E.register st) lo hi))
