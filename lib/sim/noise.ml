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

let random_pauli rng =
  match Random.State.int rng 3 with
  | 0 -> Gate.X
  | 1 -> Gate.Y
  | _ -> Gate.Z

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

(* Noisy trajectories run on the dense statevector over a compiled
   program ([Program]).  Its lowering is 1:1 — one op per source gate —
   so every gate keeps its own noise injection point, exactly where the
   source circuit has it.  Each op's [bit] and [cmask] give the qubits
   its channels act on. *)
let run_ops ~rng ~model ~num_qubits st program =
  let maybe_depolarize ~p q =
    if p > 0. && Random.State.float rng 1.0 < p then
      Statevector.apply_gate st (random_pauli rng) q
  in
  (* quantum-trajectory unraveling of amplitude damping: jump with
     probability gamma.P(1) (relax to |0>), otherwise apply the no-jump
     operator diag(1, sqrt(1-gamma)) and renormalize *)
  let maybe_amp_damp ~gamma q =
    if gamma > 0. then begin
      let p_jump = gamma *. State.prob_one st q in
      if p_jump > 0. && Random.State.float rng 1.0 < p_jump then begin
        ignore (State.project st q true);
        Statevector.apply_gate st Gate.X q
      end
      else
        Statevector.apply_kraus1 st
          (Linalg.Cmat.of_reim_lists
             [ [ (1., 0.); (0., 0.) ]; [ (0., 0.); (sqrt (1. -. gamma), 0.) ] ])
          q
    end
  in
  let maybe_dephase ~p q =
    if p > 0. && Random.State.float rng 1.0 < p then
      Statevector.apply_gate st Gate.Z q
  in
  for k = 0 to Program.length program - 1 do
    match Program.get program k with
    | ( Program.Kx _ | Program.Kh _ | Program.Kphase _ | Program.Kdiag _
      | Program.Ku2 _ ) as op ->
        Program.apply st op;
        let ((_, cmask) as l) = layout op in
        let p = if cmask = 0 then model.p_depol1 else model.p_depol2 in
        List.iter
          (fun q ->
            maybe_depolarize ~p q;
            maybe_amp_damp ~gamma:model.p_amp_damp q)
          (touched ~num_qubits l)
    | Program.Kcond { mask; value; body } ->
        let ((bit, cmask) as l) = layout body in
        (* the feed-forward latency penalty applies whether or not the
           gate fires: the controller must wait for the classical value *)
        (match model.feedforward_scope with
        | `Target -> maybe_dephase ~p:model.p_feedforward_z (qubit_of_bit bit)
        | `All_qubits ->
            for q = 0 to num_qubits - 1 do
              maybe_dephase ~p:model.p_feedforward_z q
            done);
        if State.register st land mask = value then begin
          Program.apply st body;
          let p = if cmask = 0 then model.p_depol1 else model.p_depol2 in
          List.iter (fun q -> maybe_depolarize ~p q) (touched ~num_qubits l)
        end
    | Program.Kmeasure { qubit; bit } ->
        let outcome =
          State.measure ~random:(Random.State.float rng 1.0) st ~qubit ~bit
        in
        if
          model.p_meas_flip > 0.
          && Random.State.float rng 1.0 < model.p_meas_flip
        then State.set_bit st bit (not outcome)
    | Program.Kreset q ->
        State.reset ~random:(Random.State.float rng 1.0) st q;
        if
          model.p_reset_flip > 0.
          && Random.State.float rng 1.0 < model.p_reset_flip
        then State.flip st q
  done;
  State.register st

(* The shared-prefix cache is sound under noise only when the model
   injects nothing into the prefix: no per-unitary channels, and no
   feed-forward dephasing if the prefix holds a conditioned op. *)
let prefix_noise_free model prefix_program =
  model.p_depol1 = 0. && model.p_depol2 = 0. && model.p_amp_damp = 0.
  && (model.p_feedforward_z = 0.
     || Array.for_all
          (function
            | Program.Kcond _ -> false
            | Program.Kx _ | Program.Kh _ | Program.Kphase _ | Program.Kdiag _
            | Program.Ku2 _ | Program.Kmeasure _ | Program.Kreset _ ->
                true)
          (Program.kernels prefix_program))

let run_shots ?(seed = 0xD1CE) ?domains ?plan ~model ~shots c =
  validate model;
  let c =
    match plan with
    | None -> c
    | Some plan -> Measurement_plan.instrument plan c
  in
  let width = Circ.num_bits c in
  let num_qubits = Circ.num_qubits c in
  let program = Program.compile c in
  let prefix_program, suffix_program = Program.split_prefix program in
  if prefix_noise_free model prefix_program then begin
    let cached = State.create num_qubits ~num_bits:(Circ.num_bits c) in
    Program.exec ~random:Program.no_random cached prefix_program;
    Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
        run_ops ~rng ~model ~num_qubits (State.copy cached) suffix_program)
  end
  else
    Parallel.run ?domains ~seed ~width ~shots (fun ~rng ~index:_ ->
        let st = State.create num_qubits ~num_bits:(Circ.num_bits c) in
        run_ops ~rng ~model ~num_qubits st program)

let expected_outcome_probability ?seed ?domains ~model ~shots ~expected c =
  let h = run_shots ?seed ?domains ~model ~shots c in
  Runner.frequency h expected
