open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let roles n = Array.make n Circ.Data

(* ------------------------------------------------------------------ *)
(* Bits                                                               *)

let test_bits () =
  check_bool "get" true (Sim.Bits.get 0b101 2);
  check_bool "get clear" false (Sim.Bits.get 0b101 1);
  check_int "set" 0b111 (Sim.Bits.set 0b101 1 true);
  check_int "clear" 0b001 (Sim.Bits.set 0b101 2 false);
  Alcotest.(check string) "to_string bit0 first" "101"
    (Sim.Bits.to_string ~width:3 0b101);
  check_int "of_string" 0b101 (Sim.Bits.of_string "101");
  Alcotest.check_raises "bad char"
    (Invalid_argument "Bits.of_string: non-binary character") (fun () ->
      ignore (Sim.Bits.of_string "10x"))

let prop_bits_roundtrip =
  QCheck2.Test.make ~name:"bits string roundtrip" ~count:200
    QCheck2.Gen.(int_bound 0xFFFF)
    (fun v ->
      Sim.Bits.of_string (Sim.Bits.to_string ~width:16 v) = v)

(* ------------------------------------------------------------------ *)
(* Statevector                                                        *)

let test_initial_state () =
  let st = Sim.Statevector.create 3 ~num_bits:2 in
  check_float "P(|000>)" 1. (Sim.Statevector.probabilities st).(0);
  check_int "register" 0 (Sim.Statevector.register st)

let test_hadamard () =
  let st = Sim.Statevector.create 1 ~num_bits:0 in
  Sim.Statevector.apply_gate st Gate.H 0;
  check_float "P0" 0.5 (Sim.Statevector.probabilities st).(0);
  check_float "P1" 0.5 (Sim.Statevector.probabilities st).(1)

let test_bell () =
  let st = Sim.Statevector.create 2 ~num_bits:0 in
  Sim.Statevector.apply_gate st Gate.H 0;
  Sim.Statevector.apply_app st (Instruction.app ~controls:[ 0 ] Gate.X 1);
  let p = Sim.Statevector.probabilities st in
  check_float "P(00)" 0.5 p.(0);
  check_float "P(11)" 0.5 p.(3);
  check_float "P(01)" 0. p.(1)

let test_toffoli_app () =
  let st = Sim.Statevector.create 3 ~num_bits:0 in
  Sim.Statevector.apply_gate st Gate.X 0;
  Sim.Statevector.apply_gate st Gate.X 1;
  Sim.Statevector.apply_app st (Instruction.app ~controls:[ 0; 1 ] Gate.X 2);
  check_float "P(111)" 1. (Sim.Statevector.probabilities st).(7)

let test_measure_collapse () =
  let st = Sim.Statevector.create 1 ~num_bits:1 in
  Sim.Statevector.apply_gate st Gate.H 0;
  (* random = 0.9 > 0.5 picks outcome 0 (random < p1 selects 1) *)
  let outcome = Sim.Statevector.measure ~random:0.9 st ~qubit:0 ~bit:0 in
  check_bool "outcome 0" false outcome;
  check_float "collapsed" 1. (Sim.Statevector.probabilities st).(0);
  check_bool "register" false (Sim.Statevector.get_bit st 0);
  let st1 = Sim.Statevector.create 1 ~num_bits:1 in
  Sim.Statevector.apply_gate st1 Gate.H 0;
  let outcome1 = Sim.Statevector.measure ~random:0.1 st1 ~qubit:0 ~bit:0 in
  check_bool "outcome 1" true outcome1;
  check_float "collapsed to 1" 1. (Sim.Statevector.probabilities st1).(1)

let test_project_zero_raises () =
  let st = Sim.Statevector.create 1 ~num_bits:0 in
  Alcotest.check_raises "zero branch"
    (Sim.Statevector.Zero_probability_branch { qubit = 0; outcome = true })
    (fun () -> ignore (Sim.Statevector.project st 0 true))

let test_reset () =
  let st = Sim.Statevector.create 1 ~num_bits:0 in
  Sim.Statevector.apply_gate st Gate.X 0;
  Sim.Statevector.reset ~random:0.0 st 0;
  check_float "reset to |0>" 1. (Sim.Statevector.probabilities st).(0)

let test_conditioned_execution () =
  let st = Sim.Statevector.create 1 ~num_bits:1 in
  let app = Instruction.app Gate.X 0 in
  let random () = 0.5 in
  Sim.Statevector.run_instruction ~random st
    (Instruction.Conditioned (Instruction.cond_bit 0 true, app));
  check_float "not fired" 1. (Sim.Statevector.probabilities st).(0);
  Sim.Statevector.set_bit st 0 true;
  Sim.Statevector.run_instruction ~random st
    (Instruction.Conditioned (Instruction.cond_bit 0 true, app));
  check_float "fired" 1. (Sim.Statevector.probabilities st).(1)

let test_apply_kraus1_errors () =
  let st = Sim.Statevector.create 1 ~num_bits:0 in
  Alcotest.check_raises "shape"
    (Invalid_argument "Statevector.apply_kraus1: not a 1-qubit operator")
    (fun () -> ignore (Sim.Statevector.apply_kraus1 st (Linalg.Cmat.identity 4) 0));
  (* annihilating |0> entirely *)
  let k = Linalg.Cmat.of_reim_lists [ [ (0., 0.); (1., 0.) ]; [ (0., 0.); (0., 0.) ] ] in
  Alcotest.check_raises "zero norm"
    (Invalid_argument "Statevector.apply_kraus1: zero-norm result")
    (fun () -> Sim.Statevector.apply_kraus1 st k 0)

let test_measure_all_distribution () =
  let b = Circ.Builder.make ~roles:(roles 2) ~num_bits:0 () in
  Circ.Builder.x b 1;
  let d = Sim.Exact.measure_all_distribution (Circ.Builder.build b) in
  check_float "basis state" 1. (Sim.Dist.prob d 0b10)

let test_too_many_qubits () =
  Alcotest.check_raises "25 qubits"
    (Sim.State.Dense_cap_exceeded { qubits = 25; max_qubits = 24 }) (fun () ->
      ignore (Sim.Statevector.create 25 ~num_bits:0))

(* ------------------------------------------------------------------ *)
(* Dist                                                               *)

let test_dist_basics () =
  let d = Sim.Dist.create ~width:2 [ (0, 0.25); (3, 0.75) ] in
  check_float "prob" 0.25 (Sim.Dist.prob d 0);
  check_float "absent" 0. (Sim.Dist.prob d 1);
  check_float "total" 1. (Sim.Dist.total d);
  Alcotest.(check (list int)) "support" [ 0; 3 ] (Sim.Dist.support d);
  let o, p = Sim.Dist.mode d in
  check_int "mode" 3 o;
  check_float "mode prob" 0.75 p

let test_dist_normalize () =
  let d = Sim.Dist.create ~width:1 [ (0, 2.); (1, 2.) ] in
  let n = Sim.Dist.normalize d in
  check_float "normalized" 0.5 (Sim.Dist.prob n 0);
  Alcotest.check_raises "zero mass" (Invalid_argument "Dist.normalize: zero mass")
    (fun () -> ignore (Sim.Dist.normalize (Sim.Dist.create ~width:1 [])))

let test_dist_tv () =
  let a = Sim.Dist.create ~width:1 [ (0, 1.) ] in
  let b = Sim.Dist.create ~width:1 [ (1, 1.) ] in
  check_float "disjoint" 1. (Sim.Dist.tv_distance a b);
  check_float "self" 0. (Sim.Dist.tv_distance a a);
  let c = Sim.Dist.create ~width:1 [ (0, 0.5); (1, 0.5) ] in
  check_float "half" 0.5 (Sim.Dist.tv_distance a c)

let test_dist_marginal () =
  let d = Sim.Dist.create ~width:2 [ (0b00, 0.5); (0b11, 0.5) ] in
  let m = Sim.Dist.marginal ~bits:[ 1 ] d in
  check_float "marginal 0" 0.5 (Sim.Dist.prob m 0);
  check_float "marginal 1" 0.5 (Sim.Dist.prob m 1);
  let swapped = Sim.Dist.marginal ~bits:[ 1; 0 ] d in
  check_float "joint preserved" 0.5 (Sim.Dist.prob swapped 0b11)

let test_dist_map_outcome () =
  let d = Sim.Dist.create ~width:2 [ (0, 0.5); (1, 0.3); (2, 0.2) ] in
  let collapsed = Sim.Dist.map_outcome ~width':1 (fun o -> o land 1) d in
  check_float "merged" 0.7 (Sim.Dist.prob collapsed 0)

let dist_gen =
  (* pad every weight so the total mass is always positive *)
  QCheck2.Gen.(
    map
      (fun ps ->
        let padded = List.map (fun (o, p) -> (o, p +. 1e-3)) ps in
        Sim.Dist.normalize (Sim.Dist.create ~width:3 padded))
      (list_size (int_range 1 8)
         (pair (int_bound 7) (float_bound_inclusive 1.))))

let prop_tv_symmetric =
  QCheck2.Test.make ~name:"tv symmetric" ~count:100
    QCheck2.Gen.(pair dist_gen dist_gen)
    (fun (a, b) ->
      abs_float (Sim.Dist.tv_distance a b -. Sim.Dist.tv_distance b a) < 1e-9)

let prop_tv_bounds =
  QCheck2.Test.make ~name:"tv in [0,1] for normalized" ~count:100
    QCheck2.Gen.(pair dist_gen dist_gen)
    (fun (a, b) ->
      let tv = Sim.Dist.tv_distance a b in
      tv >= -1e-9 && tv <= 1. +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Exact                                                              *)

let bell_circuit () =
  let b = Circ.Builder.make ~roles:(roles 2) ~num_bits:2 () in
  Circ.Builder.h b 0;
  Circ.Builder.cx b 0 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  Circ.Builder.build b

let test_exact_bell () =
  let d = Sim.Exact.register_distribution (bell_circuit ()) in
  check_float "P(00)" 0.5 (Sim.Dist.prob d 0b00);
  check_float "P(11)" 0.5 (Sim.Dist.prob d 0b11);
  check_float "P(01)" 0. (Sim.Dist.prob d 0b01)

let test_exact_leaves () =
  let leaves = Sim.Exact.leaves (bell_circuit ()) in
  check_int "two branches" 2 (List.length leaves);
  check_float "mass" 1.
    (List.fold_left (fun acc l -> acc +. l.Sim.Exact.probability) 0. leaves)

let test_exact_reset_branches () =
  (* H then reset: both branches end in |0>, register untouched *)
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:1 () in
  Circ.Builder.h b 0;
  Circ.Builder.reset b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let d = Sim.Exact.register_distribution (Circ.Builder.build b) in
  check_float "always 0" 1. (Sim.Dist.prob d 0)

(* Quantum teleportation: the canonical dynamic-circuit integration
   test.  Teleport Ry(0.7)|0> from qubit 0 to qubit 2 using mid-circuit
   measurement and classically controlled corrections. *)
let test_teleportation () =
  let theta = 0.7 in
  let b = Circ.Builder.make ~roles:(roles 3) ~num_bits:3 () in
  Circ.Builder.gate b (Gate.Ry theta) 0;
  Circ.Builder.h b 1;
  Circ.Builder.cx b 1 2;
  Circ.Builder.cx b 0 1;
  Circ.Builder.h b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  Circ.Builder.conditioned b ~bit:1 Gate.X 2;
  Circ.Builder.conditioned b ~bit:0 Gate.Z 2;
  Circ.Builder.measure b ~qubit:2 ~bit:2;
  let d = Sim.Exact.register_distribution (Circ.Builder.build b) in
  let marg = Sim.Dist.marginal ~bits:[ 2 ] d in
  let expected_p1 = sin (theta /. 2.) ** 2. in
  check_float "teleported P(1)" expected_p1 (Sim.Dist.prob marg 1)

let test_measured_distribution_widens () =
  let c = Circ.create ~roles:(roles 1) ~num_bits:0
      [ Instruction.Unitary (Instruction.app Gate.X 0) ] in
  let d = Sim.Exact.measured_distribution ~measures:[ (0, 2) ] c in
  check_float "bit 2 set" 1. (Sim.Dist.prob d 0b100)

(* ------------------------------------------------------------------ *)
(* Unitary                                                            *)

let test_unitary_identity () =
  let c = Circ.create ~roles:(roles 2) ~num_bits:0 [] in
  check_bool "identity" true
    (Linalg.Cmat.approx_equal (Sim.Unitary.of_circuit c) (Linalg.Cmat.identity 4))

let test_unitary_cx () =
  let m = Sim.Unitary.of_app ~n:2 (Instruction.app ~controls:[ 0 ] Gate.X 1) in
  (* |01> (q0=1) -> |11> i.e. column 1 has a 1 in row 3 *)
  check_bool "cx column" true
    (Linalg.Complex_ext.approx_equal (Linalg.Cmat.get m 3 1) Complex.one);
  check_bool "column 0 fixed" true
    (Linalg.Complex_ext.approx_equal (Linalg.Cmat.get m 0 0) Complex.one)

let test_unitary_rejects_measure () =
  let c =
    Circ.create ~roles:(roles 1) ~num_bits:1
      [ Instruction.Measure { qubit = 0; bit = 0 } ]
  in
  Alcotest.check_raises "measure"
    (Invalid_argument "Unitary.of_circuit: non-unitary instruction") (fun () ->
      ignore (Sim.Unitary.of_circuit c))

let test_unitary_global_phase () =
  (* Z X Z X = -I: equivalent to identity only up to phase *)
  let i g t = Instruction.Unitary (Instruction.app g t) in
  let c =
    Circ.create ~roles:(roles 1) ~num_bits:0
      [ i Gate.Z 0; i Gate.X 0; i Gate.Z 0; i Gate.X 0 ]
  in
  let id = Circ.create ~roles:(roles 1) ~num_bits:0 [] in
  check_bool "up to phase" true (Sim.Unitary.equivalent c id);
  check_bool "not exact" false (Sim.Unitary.equivalent ~up_to_phase:false c id)

(* ------------------------------------------------------------------ *)
(* Runner histograms, sampled on the dense engine                     *)

let test_runner_deterministic () =
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:1 () in
  Circ.Builder.x b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let h =
    Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~shots:100
      (Circ.Builder.build b)
  in
  check_int "all ones" 100 (Sim.Runner.count h 1);
  check_float "frequency" 1. (Sim.Runner.frequency h 1)

let test_runner_bell_stats () =
  let h =
    Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:42 ~shots:2000
      (bell_circuit ())
  in
  check_int "shots" 2000 (Sim.Runner.shots h);
  check_bool "both outcomes seen" true
    (Sim.Runner.count h 0b00 > 800 && Sim.Runner.count h 0b11 > 800);
  check_int "no mixed outcomes" 0
    (Sim.Runner.count h 0b01 + Sim.Runner.count h 0b10);
  check_float "to_dist total" 1. (Sim.Dist.total (Sim.Runner.to_dist h))

let test_runner_seed_reproducible () =
  let run () =
    Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:7 ~shots:50
      (bell_circuit ())
  in
  let h1 = run () and h2 = run () in
  check_bool "same counts" true (Sim.Runner.to_list h1 = Sim.Runner.to_list h2)

(* ------------------------------------------------------------------ *)
(* Noise                                                              *)

let test_noise_ideal_matches_exact () =
  let c = bell_circuit () in
  let h = Sim.Noise.run_shots ~model:Sim.Noise.ideal ~shots:500 c in
  let tv =
    Sim.Dist.tv_distance (Sim.Runner.to_dist h) (Sim.Exact.register_distribution c)
  in
  check_bool "close to exact" true (tv < 0.1)

let test_noise_validate () =
  let bad = { Sim.Noise.ideal with Sim.Noise.p_depol1 = 1.5 } in
  Alcotest.check_raises "bad prob"
    (Invalid_argument "Noise: p_depol1 = 1.5 outside [0,1]") (fun () ->
      Sim.Noise.validate bad)

let test_noise_meas_flip () =
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:1 () in
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let model = { Sim.Noise.ideal with Sim.Noise.p_meas_flip = 1.0 } in
  let h = Sim.Noise.run_shots ~model ~shots:50 (Circ.Builder.build b) in
  check_int "always flipped" 50 (Sim.Runner.count h 1)

let test_noise_reset_flip () =
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:1 () in
  Circ.Builder.reset b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let model = { Sim.Noise.ideal with Sim.Noise.p_reset_flip = 1.0 } in
  let h = Sim.Noise.run_shots ~model ~shots:50 (Circ.Builder.build b) in
  check_int "reset leaves |1>" 50 (Sim.Runner.count h 1)

let test_feedforward_dephasing_selective () =
  (* conditioned gate on a basis-state target: dephasing harmless;
     on a superposed qubit measured in X basis: visible *)
  let mk ~superposed =
    let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:2 () in
    if superposed then Circ.Builder.h b 0;
    (* bit 1 is never written: the conditioned gate never fires, but
       its feed-forward latency penalty is still charged *)
    Circ.Builder.conditioned b ~bit:1 Gate.X 0;
    if superposed then Circ.Builder.h b 0;
    Circ.Builder.measure b ~qubit:0 ~bit:0;
    Circ.Builder.build b
  in
  let model = { Sim.Noise.ideal with Sim.Noise.p_feedforward_z = 0.5 } in
  let h_basis = Sim.Noise.run_shots ~model ~shots:400 (mk ~superposed:false) in
  let h_plus = Sim.Noise.run_shots ~model ~shots:400 (mk ~superposed:true) in
  check_int "basis state unaffected" 400
    (Sim.Runner.count h_basis 0b00 + Sim.Runner.count h_basis 0b10);
  check_bool "superposition damaged" true (Sim.Runner.count h_plus 0b01 > 100)

let test_noise_expected_outcome_probability () =
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:1 () in
  Circ.Builder.x b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let p =
    Sim.Noise.expected_outcome_probability ~model:Sim.Noise.ideal ~shots:50
      ~expected:1 (Circ.Builder.build b)
  in
  check_float "ideal deterministic" 1. p

(* ------------------------------------------------------------------ *)
(* Density                                                            *)

let test_density_matches_exact () =
  (* ideal density-matrix evolution = exact branching, including
     mid-circuit measurement, reset and conditioned gates *)
  let b = Circ.Builder.make ~roles:(roles 2) ~num_bits:2 () in
  Circ.Builder.h b 0;
  Circ.Builder.cx b 0 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.conditioned b ~bit:0 Gate.X 1;
  Circ.Builder.reset b 0;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  let c = Circ.Builder.build b in
  let exact = Sim.Exact.register_distribution c in
  let dens = Sim.Density.register_distribution (Sim.Density.run c) in
  check_bool "distributions equal" true (Sim.Dist.approx_equal exact dens)

let test_density_trace_preserved () =
  let c = bell_circuit () in
  let st = Sim.Density.run ~model:Sim.Noise.default c in
  check_float "trace 1" 1. (Sim.Density.trace st)

let test_density_purity () =
  (* depolarizing noise mixes the state *)
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:0 () in
  Circ.Builder.h b 0;
  let c = Circ.Builder.build b in
  let pure = Sim.Density.purity (Sim.Density.run c) in
  check_float "pure" 1. pure;
  let model = { Sim.Noise.ideal with Sim.Noise.p_depol1 = 0.5 } in
  let mixed = Sim.Density.purity (Sim.Density.run ~model c) in
  check_bool "mixed" true (mixed < 0.99)

let test_density_meas_flip_exact () =
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:1 () in
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let c = Circ.Builder.build b in
  let model = { Sim.Noise.ideal with Sim.Noise.p_meas_flip = 0.25 } in
  let d = Sim.Density.register_distribution (Sim.Density.run ~model c) in
  check_float "flip probability exact" 0.25 (Sim.Dist.prob d 1)

let test_density_reset_flip_exact () =
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:1 () in
  Circ.Builder.reset b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let c = Circ.Builder.build b in
  let model = { Sim.Noise.ideal with Sim.Noise.p_reset_flip = 0.1 } in
  let d = Sim.Density.register_distribution (Sim.Density.run ~model c) in
  check_float "residual excitation" 0.1 (Sim.Dist.prob d 1)

let test_density_matches_trajectories () =
  (* the two noise engines implement the same channels *)
  let b = Circ.Builder.make ~roles:(roles 2) ~num_bits:2 () in
  Circ.Builder.h b 0;
  Circ.Builder.cx b 0 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.conditioned b ~bit:0 Gate.X 1;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  let c = Circ.Builder.build b in
  let model =
    { Sim.Noise.default with Sim.Noise.p_feedforward_z = 0.1 }
  in
  let exact = Sim.Density.register_distribution (Sim.Density.run ~model c) in
  let sampled =
    Sim.Runner.to_dist (Sim.Noise.run_shots ~seed:11 ~model ~shots:40000 c)
  in
  check_bool "within sampling error" true
    (Sim.Dist.tv_distance exact sampled < 0.02)

let test_density_qubit_cap () =
  Alcotest.check_raises "9 qubits"
    (Invalid_argument "Density.create: 9 qubits (max 8)") (fun () ->
      ignore
        (Sim.Density.run
           (Circ.create ~roles:(roles 9) ~num_bits:0 [])))

(* ------------------------------------------------------------------ *)
(* Stabilizer                                                         *)

let test_stab_bell () =
  let h =
    Sim.Backend.run ~policy:Sim.Backend.Stabilizer ~shots:1000 (bell_circuit ())
  in
  check_int "no mixed outcomes" 0
    (Sim.Runner.count h 0b01 + Sim.Runner.count h 0b10);
  check_bool "both corners seen" true
    (Sim.Runner.count h 0b00 > 300 && Sim.Runner.count h 0b11 > 300)

let test_stab_deterministic () =
  let b = Circ.Builder.make ~roles:(roles 2) ~num_bits:2 () in
  Circ.Builder.x b 0;
  Circ.Builder.cx b 0 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  let h =
    Sim.Backend.run ~policy:Sim.Backend.Stabilizer ~shots:50
      (Circ.Builder.build b)
  in
  check_int "always 11" 50 (Sim.Runner.count h 0b11)

let test_stab_conditioned_and_reset () =
  (* measure a |1> qubit, reset it, use the bit to flip another *)
  let b = Circ.Builder.make ~roles:(roles 2) ~num_bits:2 () in
  Circ.Builder.x b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.reset b 0;
  Circ.Builder.conditioned b ~bit:0 Gate.X 1;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  let h =
    Sim.Backend.run ~policy:Sim.Backend.Stabilizer ~shots:50
      (Circ.Builder.build b)
  in
  check_int "bit forwarded" 50 (Sim.Runner.count h 0b11)

let test_stab_bv_at_scale () =
  (* 60-bit BV: statevector impossible, tableau instant; the 2-qubit
     dynamic circuit recovers the hidden string deterministically *)
  let n = 60 in
  let s = String.init n (fun k -> if k mod 3 = 0 then '1' else '0') in
  let c = Algorithms.Bv.circuit s in
  let r = Dqc.Transform.transform c in
  let program = Sim.Program.compile r.circuit in
  check_bool "dynamic is clifford" true (Sim.Stabilizer.supports program);
  let rng = Random.State.make [| 1 |] in
  let st = Sim.Stabilizer.run ~rng program in
  check_int "hidden string recovered" (Algorithms.Bv.expected_outcome s)
    (Sim.Stabilizer.register st)

let test_stab_unsupported () =
  let c =
    Circ.create ~roles:(roles 1) ~num_bits:0
      [ Instruction.Unitary (Instruction.app Gate.T 0) ]
  in
  let program = Sim.Program.compile c in
  check_bool "supports is false" false (Sim.Stabilizer.supports program);
  check_bool "run raises" true
    (try
       ignore (Sim.Stabilizer.run ~rng:(Random.State.make [| 0 |]) program);
       false
     with Sim.Stabilizer.Unsupported _ -> true)

(* Random 3-qubit Clifford circuits over every kernel the tableau
   maps, with mid-circuit measurement, reset and feed-forward. *)
let clifford_gen =
  QCheck2.Gen.(
    list_size (int_range 1 15)
      (oneof
         [
           map2
             (fun g q -> Instruction.Unitary (Instruction.app g q))
             (oneofl Gate.[ H; X; Y; Z; S; Sdg ])
             (int_range 0 2);
           map3
             (fun g a d ->
               let b = (a + 1 + d) mod 3 in
               Instruction.Unitary (Instruction.app ~controls:[ a ] g b))
             (oneofl Gate.[ X; Z ])
             (int_range 0 2) (int_range 0 1);
           map2
             (fun q b -> Instruction.Measure { qubit = q; bit = b })
             (int_range 0 2) (int_range 0 2);
           map (fun q -> Instruction.Reset q) (int_range 0 2);
           map3
             (fun g (b, v) q ->
               Instruction.Conditioned
                 ({ Instruction.bits = [ (b, v) ] }, Instruction.app g q))
             (oneofl Gate.[ X; Z ])
             (pair (int_range 0 2) bool)
             (int_range 0 2);
         ]))

let clifford_circuit instrs =
  Circ.create ~roles:(roles 3) ~num_bits:3
    (instrs @ List.init 3 (fun q -> Instruction.Measure { qubit = q; bit = q }))

let prop_stabilizer_matches_exact =
  QCheck2.Test.make
    ~name:"stabilizer shots match the exact distribution" ~count:20
    clifford_gen
    (fun instrs ->
      let c = clifford_circuit instrs in
      let d_exact = Sim.Exact.register_distribution c in
      let d_stab =
        Sim.Runner.to_dist
          (Sim.Backend.run ~policy:Sim.Backend.Stabilizer ~shots:3000 c)
      in
      Sim.Dist.tv_distance d_exact d_stab < 0.08)

(* The tableau keeps the engines' randomness contract, so on a
   Clifford circuit it replays the dense shot stream draw for draw. *)
let prop_stabilizer_is_dense =
  QCheck2.Test.make ~name:"tableau shots = dense shots, same seed"
    ~count:100 clifford_gen (fun instrs ->
      let c = clifford_circuit instrs in
      let run policy = Sim.Backend.run ~policy ~seed:17 ~shots:200 c in
      Sim.Runner.to_list (run Sim.Backend.Stabilizer)
      = Sim.Runner.to_list (run Sim.Backend.Statevector_dense))

let prop_stabilizer_exact_law =
  QCheck2.Test.make ~name:"tableau exact law = dense exact law" ~count:100
    clifford_gen (fun instrs ->
      let p = Sim.Program.compile (clifford_circuit instrs) in
      let law engine = Sim.Exact.program_distribution ~engine p in
      Sim.Dist.approx_equal ~eps:1e-12
        (law (module Sim.Stabilizer.Tableau_engine : Sim.Engine.Core))
        (law (module Sim.Statevector.Dense_engine : Sim.Engine.Core)))

module Tableau = Sim.Stabilizer.Tableau_engine

let test_stab_zero_probability () =
  let st = Tableau.create 2 ~num_bits:0 in
  Alcotest.check_raises "|0> onto 1"
    (Sim.State.Zero_probability_branch { qubit = 1; outcome = true })
    (fun () -> ignore (Tableau.project st 1 true));
  check_float "|0> onto 0" 1. (Tableau.project st 1 false);
  Tableau.apply st
    (Sim.Program.get
       (Sim.Program.compile
          (Circ.create ~roles:(roles 2) ~num_bits:0
             [ Instruction.Unitary (Instruction.app Gate.H 0) ]))
       0);
  check_float "|+> onto 1" 0.5 (Tableau.project st 0 true);
  Alcotest.check_raises "then onto 0"
    (Sim.State.Zero_probability_branch { qubit = 0; outcome = false })
    (fun () -> ignore (Tableau.project st 0 false))

(* One row per single-instruction program: whether the tableau maps
   its kernel, checked by [supports] and by [apply] on a fresh
   tableau; a conditioned op is checked whether or not it fires. *)
let test_stab_kernel_table () =
  let app ?(controls = []) g q = Instruction.app ~controls g q in
  let cond a =
    Instruction.Conditioned ({ Instruction.bits = [ (0, true) ] }, a)
  in
  let u a = Instruction.Unitary a in
  let rows =
    [
      ("X", u (app Gate.X 2), true);
      ("CX", u (app ~controls:[ 0 ] Gate.X 2), true);
      ("Z", u (app Gate.Z 2), true);
      ("CZ", u (app ~controls:[ 2 ] Gate.Z 0), true);
      ("S", u (app Gate.S 1), true);
      ("Sdg", u (app Gate.Sdg 1), true);
      ("H", u (app Gate.H 0), true);
      ("Y", u (app Gate.Y 0), true);
      ("conditioned X", cond (app Gate.X 1), true);
      ("conditioned CZ", cond (app ~controls:[ 0 ] Gate.Z 1), true);
      ("T", u (app Gate.T 0), false);
      ("Tdg", u (app Gate.Tdg 0), false);
      ("CH", u (app ~controls:[ 0 ] Gate.H 1), false);
      ("CCX", u (app ~controls:[ 0; 1 ] Gate.X 2), false);
      ("CS", u (app ~controls:[ 0 ] Gate.S 1), false);
      ("CY", u (app ~controls:[ 0 ] Gate.Y 1), false);
      ("V", u (app Gate.V 0), false);
      ("Rz", u (app (Gate.Rz 0.3) 0), false);
      ("Phase pi", u (app (Gate.Phase Float.pi) 0), false);
      ("conditioned T", cond (app Gate.T 1), false);
    ]
  in
  List.iter
    (fun (name, instr, maps) ->
      let p =
        Sim.Program.compile (Circ.create ~roles:(roles 3) ~num_bits:1 [ instr ])
      in
      check_bool (name ^ ": supports") maps (Sim.Stabilizer.supports p);
      let raises =
        let st = Tableau.create 3 ~num_bits:1 in
        match Tableau.apply st (Sim.Program.get p 0) with
        | () -> false
        | exception Sim.Stabilizer.Unsupported _ -> true
      in
      check_bool (name ^ ": apply raises Unsupported") (not maps) raises)
    rows

(* The exact-branch backend's shot loop: alias draws from [d] on the
   parallel shot engine. *)
let alias_shots ?seed ~shots d =
  let sm = Sim.Dist.sampler d in
  Sim.Parallel.run ?seed ~width:(Sim.Dist.width d) ~shots (fun ~rng ~index:_ ->
      Sim.Dist.sample sm rng)

let test_sampler_frequencies () =
  let d = Sim.Dist.create ~width:2 [ (0, 0.7); (3, 0.2); (1, 0.1) ] in
  let h = alias_shots ~seed:5 ~shots:50000 d in
  check_bool "outcome 0" true (abs_float (Sim.Runner.frequency h 0 -. 0.7) < 0.02);
  check_bool "outcome 3" true (abs_float (Sim.Runner.frequency h 3 -. 0.2) < 0.02);
  check_bool "outcome 1" true (abs_float (Sim.Runner.frequency h 1 -. 0.1) < 0.02)

let test_sampler_deterministic_dist () =
  let d = Sim.Dist.create ~width:3 [ (5, 1.0) ] in
  let h = alias_shots ~shots:100 d in
  check_int "point mass" 100 (Sim.Runner.count h 5);
  Alcotest.check_raises "empty" (Invalid_argument "Dist.sampler: empty distribution")
    (fun () -> ignore (Sim.Dist.sampler (Sim.Dist.create ~width:1 [])))

let test_sampler_matches_circuit_shots () =
  (* sampling the exact distribution is equivalent in law to rerunning
     the circuit *)
  let c = bell_circuit () in
  let exact = Sim.Exact.register_distribution c in
  let h =
    Sim.Backend.run ~policy:Sim.Backend.Exact_branch ~seed:3 ~shots:20000 c
  in
  check_bool "close" true
    (Sim.Dist.tv_distance (Sim.Runner.to_dist h) exact < 0.02)

let test_density_feedforward_scope () =
  (* `All_qubits charges the dephasing to a bystander superposed qubit
     that `Target leaves alone *)
  let b = Circ.Builder.make ~roles:(roles 2) ~num_bits:2 () in
  Circ.Builder.h b 1;
  Circ.Builder.conditioned b ~bit:1 Gate.X 0;
  (* bit 1 never written: the gate never fires *)
  Circ.Builder.h b 1;
  Circ.Builder.measure b ~qubit:1 ~bit:0;
  let c = Circ.Builder.build b in
  let run scope =
    let model =
      { Sim.Noise.ideal with Sim.Noise.p_feedforward_z = 0.4; feedforward_scope = scope }
    in
    Sim.Dist.prob
      (Sim.Density.register_distribution (Sim.Density.run ~model c))
      0b1
  in
  check_float "target scope leaves bystander pure" 0. (run `Target);
  check_float "all-qubits scope dephases it" 0.4 (run `All_qubits)

let test_stabilizer_cz_and_s () =
  (* CZ and S are in the supported Clifford set: build an S-conjugated
     bell pair and check correlations *)
  let b = Circ.Builder.make ~roles:(roles 2) ~num_bits:2 () in
  Circ.Builder.h b 0;
  Circ.Builder.h b 1;
  Circ.Builder.cgate b Gate.Z 0 1;
  Circ.Builder.h b 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  let c = Circ.Builder.build b in
  check_bool "supported" true (Sim.Stabilizer.supports (Sim.Program.compile c));
  let h = Sim.Backend.run ~policy:Sim.Backend.Stabilizer ~shots:500 c in
  (* H CZ H = CX: bell-type correlations *)
  check_int "no mixed" 0 (Sim.Runner.count h 0b01 + Sim.Runner.count h 0b10)

let test_amp_damp_decay () =
  (* |1> decays: after k gates with damping gamma, P(1) = (1-gamma)^k *)
  let gamma = 0.2 in
  let model = { Sim.Noise.ideal with Sim.Noise.p_amp_damp = gamma } in
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:1 () in
  Circ.Builder.x b 0;
  Circ.Builder.z b 0;
  Circ.Builder.z b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let c = Circ.Builder.build b in
  let d = Sim.Density.register_distribution (Sim.Density.run ~model c) in
  check_float "density decay" ((1. -. gamma) ** 3.) (Sim.Dist.prob d 1);
  (* trajectories converge to the same value *)
  let h = Sim.Noise.run_shots ~seed:2 ~model ~shots:40000 c in
  check_bool "trajectories agree" true
    (abs_float (Sim.Runner.frequency h 1 -. ((1. -. gamma) ** 3.)) < 0.01)

let test_amp_damp_nonunital () =
  (* damping is non-unital: it creates |0> population from the
     maximally mixed state, unlike depolarizing *)
  let gamma = 0.5 in
  let model = { Sim.Noise.ideal with Sim.Noise.p_amp_damp = gamma } in
  let b = Circ.Builder.make ~roles:(roles 1) ~num_bits:1 () in
  Circ.Builder.h b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let c = Circ.Builder.build b in
  let d = Sim.Density.register_distribution (Sim.Density.run ~model c) in
  (* |+> damped: P(1) = (1-gamma)/2 < 1/2 *)
  check_float "biased towards ground" ((1. -. gamma) /. 2.) (Sim.Dist.prob d 1)

(* ------------------------------------------------------------------ *)
(* The answer qubit's X eigenvalue                                    *)

(* P(X on [answer] measures -1): H maps the X eigenstate |-> to |1>,
   so append H and a measurement of [answer] into a fresh bit and read
   that bit's exact probability of 1. *)
let prob_x_minus c answer =
  let nb = Circ.num_bits c in
  let probe =
    Circ.create ~roles:(Circ.roles c) ~num_bits:(nb + 1)
      (Circ.instructions c
      @ [
          Instruction.Unitary (Instruction.app Gate.H answer);
          Instruction.Measure { qubit = answer; bit = nb };
        ])
  in
  Sim.Dist.prob
    (Sim.Dist.marginal ~bits:[ nb ] (Sim.Exact.register_distribution probe))
    1

let test_observable_phase_kickback_invariant () =
  (* the answer qubit of a DJ oracle stays in the <X> = -1 eigenstate
     through the whole computation — the invariant that makes the
     oracle act purely as phase kickback on the data qubits *)
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "OR") in
  let dj = Algorithms.Dj.circuit o in
  check_float "<X_answer> = -1" 1. (prob_x_minus dj 2);
  (* and the same holds in the 2-qubit dynamic realization *)
  let r = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 dj in
  check_float "dynamic <X_answer> = -1" 1. (prob_x_minus r.circuit 1)

let () =
  Alcotest.run "sim"
    [
      ( "bits",
        [
          Alcotest.test_case "basics" `Quick test_bits;
          QCheck_alcotest.to_alcotest prop_bits_roundtrip;
        ] );
      ( "statevector",
        [
          Alcotest.test_case "initial" `Quick test_initial_state;
          Alcotest.test_case "hadamard" `Quick test_hadamard;
          Alcotest.test_case "bell" `Quick test_bell;
          Alcotest.test_case "toffoli app" `Quick test_toffoli_app;
          Alcotest.test_case "measure collapse" `Quick test_measure_collapse;
          Alcotest.test_case "project zero raises" `Quick test_project_zero_raises;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "conditioned" `Quick test_conditioned_execution;
          Alcotest.test_case "qubit cap" `Quick test_too_many_qubits;
          Alcotest.test_case "kraus errors" `Quick test_apply_kraus1_errors;
          Alcotest.test_case "measure all" `Quick test_measure_all_distribution;
        ] );
      ( "dist",
        [
          Alcotest.test_case "basics" `Quick test_dist_basics;
          Alcotest.test_case "normalize" `Quick test_dist_normalize;
          Alcotest.test_case "tv" `Quick test_dist_tv;
          Alcotest.test_case "marginal" `Quick test_dist_marginal;
          Alcotest.test_case "map_outcome" `Quick test_dist_map_outcome;
          QCheck_alcotest.to_alcotest prop_tv_symmetric;
          QCheck_alcotest.to_alcotest prop_tv_bounds;
        ] );
      ( "exact",
        [
          Alcotest.test_case "bell" `Quick test_exact_bell;
          Alcotest.test_case "leaves" `Quick test_exact_leaves;
          Alcotest.test_case "reset branches" `Quick test_exact_reset_branches;
          Alcotest.test_case "teleportation" `Quick test_teleportation;
          Alcotest.test_case "measured widens" `Quick
            test_measured_distribution_widens;
        ] );
      ( "unitary",
        [
          Alcotest.test_case "identity" `Quick test_unitary_identity;
          Alcotest.test_case "cx" `Quick test_unitary_cx;
          Alcotest.test_case "rejects measure" `Quick test_unitary_rejects_measure;
          Alcotest.test_case "global phase" `Quick test_unitary_global_phase;
        ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "bell stats" `Quick test_runner_bell_stats;
          Alcotest.test_case "seed reproducible" `Quick
            test_runner_seed_reproducible;
        ] );
      ( "density",
        [
          Alcotest.test_case "matches exact" `Quick test_density_matches_exact;
          Alcotest.test_case "trace preserved" `Quick
            test_density_trace_preserved;
          Alcotest.test_case "purity" `Quick test_density_purity;
          Alcotest.test_case "meas flip exact" `Quick
            test_density_meas_flip_exact;
          Alcotest.test_case "reset flip exact" `Quick
            test_density_reset_flip_exact;
          Alcotest.test_case "matches trajectories" `Slow
            test_density_matches_trajectories;
          Alcotest.test_case "qubit cap" `Quick test_density_qubit_cap;
          Alcotest.test_case "feedforward scope" `Quick
            test_density_feedforward_scope;
          Alcotest.test_case "amp damp decay" `Slow test_amp_damp_decay;
          Alcotest.test_case "amp damp non-unital" `Quick
            test_amp_damp_nonunital;
        ] );
      ( "observable",
        [
          Alcotest.test_case "phase kickback invariant" `Quick
            test_observable_phase_kickback_invariant;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "frequencies" `Quick test_sampler_frequencies;
          Alcotest.test_case "point mass" `Quick test_sampler_deterministic_dist;
          Alcotest.test_case "matches circuit shots" `Slow
            test_sampler_matches_circuit_shots;
        ] );
      ( "stabilizer",
        [
          Alcotest.test_case "bell" `Quick test_stab_bell;
          Alcotest.test_case "deterministic" `Quick test_stab_deterministic;
          Alcotest.test_case "conditioned+reset" `Quick
            test_stab_conditioned_and_reset;
          Alcotest.test_case "BV at scale" `Quick test_stab_bv_at_scale;
          Alcotest.test_case "unsupported" `Quick test_stab_unsupported;
          Alcotest.test_case "cz and s" `Quick test_stabilizer_cz_and_s;
          QCheck_alcotest.to_alcotest prop_stabilizer_matches_exact;
          QCheck_alcotest.to_alcotest prop_stabilizer_is_dense;
          QCheck_alcotest.to_alcotest prop_stabilizer_exact_law;
          Alcotest.test_case "zero-probability project" `Quick
            test_stab_zero_probability;
          Alcotest.test_case "kernel table" `Quick test_stab_kernel_table;
        ] );
      ( "noise",
        [
          Alcotest.test_case "ideal matches exact" `Quick
            test_noise_ideal_matches_exact;
          Alcotest.test_case "validate" `Quick test_noise_validate;
          Alcotest.test_case "meas flip" `Quick test_noise_meas_flip;
          Alcotest.test_case "reset flip" `Quick test_noise_reset_flip;
          Alcotest.test_case "feedforward dephasing" `Quick
            test_feedforward_dephasing_selective;
          Alcotest.test_case "expected outcome" `Quick
            test_noise_expected_outcome_probability;
        ] );
    ]
