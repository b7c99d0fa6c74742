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

(* Noisy trajectories run on the dense statevector over a compiled
   program ([Program]) lowered with [~fuse:false]: fusion would merge
   the very gate boundaries the channels attach to, so the 1:1
   gate-to-op lowering keeps noise injection points identical to the
   source circuit.  [Program.view] recovers the target/control
   structure each channel needs. *)
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
  let len = Program.length program in
  for k = 0 to len - 1 do
    let op = Program.get program k in
    match Program.view ~n:num_qubits op with
    | Program.Unitary { target; controls } ->
        Program.apply st op;
        let p = if controls = [] then model.p_depol1 else model.p_depol2 in
        List.iter
          (fun q ->
            maybe_depolarize ~p q;
            maybe_amp_damp ~gamma:model.p_amp_damp q)
          (controls @ [ target ])
    | Program.Conditional { mask; value; target; controls } ->
        (* the feed-forward latency penalty applies whether or not the
           gate fires: the controller must wait for the classical value *)
        (match model.feedforward_scope with
        | `Target -> maybe_dephase ~p:model.p_feedforward_z target
        | `All_qubits ->
            for q = 0 to num_qubits - 1 do
              maybe_dephase ~p:model.p_feedforward_z q
            done);
        if State.register st land mask = value then begin
          Program.apply st op;
          let p = if controls = [] then model.p_depol1 else model.p_depol2 in
          List.iter (fun q -> maybe_depolarize ~p q) (controls @ [ target ])
        end
    | Program.Measurement { qubit; bit } ->
        let outcome =
          State.measure ~random:(Random.State.float rng 1.0) st ~qubit ~bit
        in
        if
          model.p_meas_flip > 0.
          && Random.State.float rng 1.0 < model.p_meas_flip
        then State.set_bit st bit (not outcome)
    | Program.Reset q ->
        State.reset ~random:(Random.State.float rng 1.0) st q;
        if
          model.p_reset_flip > 0.
          && Random.State.float rng 1.0 < model.p_reset_flip
        then State.flip st q
  done;
  State.register st

let compile_noisy c = Program.compile ~fuse:false c

let run_shot ~rng ~model c =
  validate model;
  let program = compile_noisy c in
  let st = State.create (Circ.num_qubits c) ~num_bits:(Circ.num_bits c) in
  run_ops ~rng ~model ~num_qubits:(Circ.num_qubits c) st program

(* The shared-prefix cache is sound under noise only when the model
   injects nothing into the prefix: no per-unitary channels, and no
   feed-forward dephasing if the prefix holds a conditioned op. *)
let prefix_noise_free ~num_qubits model prefix_program =
  model.p_depol1 = 0. && model.p_depol2 = 0. && model.p_amp_damp = 0.
  &&
  (model.p_feedforward_z = 0.
  ||
  let conditional = ref false in
  for k = 0 to Program.length prefix_program - 1 do
    match Program.view ~n:num_qubits (Program.get prefix_program k) with
    | Program.Conditional _ -> conditional := true
    | Program.Unitary _ | Program.Measurement _ | Program.Reset _ -> ()
  done;
  not !conditional)

let run_shots ?(seed = 0xD1CE) ?domains ?plan ~model ~shots c =
  validate model;
  let c =
    match plan with
    | None -> c
    | Some plan -> Measurement_plan.instrument plan c
  in
  let width = Circ.num_bits c in
  let num_qubits = Circ.num_qubits c in
  let program = compile_noisy c in
  let prefix_program, suffix_program = Program.split_prefix program in
  if prefix_noise_free ~num_qubits model prefix_program then begin
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
