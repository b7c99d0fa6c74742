(* Hardware-noise extension study.

   The paper's Fig 7 separation is functional (its simulator is
   noiseless), but on a real device dynamic circuits additionally pay
   for mid-circuit measurement, active reset and the real-time
   classical round trip of conditioned gates.  This example runs the
   Monte-Carlo noise model over the BV benchmarks (where both circuit
   styles are exactly equivalent in the noiseless limit, isolating the
   hardware cost) and sweeps the feed-forward dephasing rate.

   Run with: dune exec examples/noise_accuracy.exe *)

let accuracy ~model ~shots circuit ~measures ~ideal =
  let num_bits =
    List.fold_left
      (fun acc (_, b) -> max acc (b + 1))
      (Circuit.Circ.num_bits circuit)
      measures
  in
  let widened =
    Circuit.Circ.create
      ~roles:(Circuit.Circ.roles circuit)
      ~num_bits
      (Circuit.Circ.instructions circuit
      @ List.map
          (fun (qubit, bit) -> Circuit.Instruction.Measure { qubit; bit })
          measures)
  in
  let h = Sim.Noise.run_shots ~model ~shots widened in
  1. -. Sim.Dist.tv_distance (Sim.Runner.to_dist h) ideal

let () =
  let s = "1011" in
  let traditional = Algorithms.Bv.circuit s in
  let r = Dqc.Transform.transform traditional in
  let num_data = List.length r.data_bit in
  let trad_measures =
    r.data_bit @ List.mapi (fun k (q, _) -> (q, num_data + k)) r.answer_phys
  in
  let dyn_measures =
    List.mapi (fun k (_, phys) -> (phys, num_data + k)) r.answer_phys
  in
  let ideal = Dqc.Equivalence.traditional_distribution traditional r in

  Printf.printf "BV_%s under the device noise model (1 - TV to ideal):\n\n" s;
  Printf.printf "%-28s %12s %12s\n" "model" "traditional" "dynamic";
  let row label model =
    let at = accuracy ~model ~shots:2048 traditional ~measures:trad_measures ~ideal in
    let ad = accuracy ~model ~shots:2048 r.circuit ~measures:dyn_measures ~ideal in
    Printf.printf "%-28s %12.4f %12.4f\n" label at ad
  in
  row "ideal" Sim.Noise.ideal;
  row "default device" Sim.Noise.default;
  row "meas flip only (2%)"
    { Sim.Noise.ideal with Sim.Noise.p_meas_flip = 0.02 };
  row "reset flip only (5%)"
    { Sim.Noise.ideal with Sim.Noise.p_reset_flip = 0.05 };
  row "depolarizing only"
    { Sim.Noise.ideal with Sim.Noise.p_depol1 = 0.001; p_depol2 = 0.01 };

  (* Sweep the feed-forward dephasing rate on a Toffoli-based DJ: the
     conditioned gates of dynamic-1 act on a superposed data qubit,
     dynamic-2's act on a basis-state ancilla — so only dynamic-1
     degrades further as the rate grows. *)
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let dj = Algorithms.Dj.circuit o in
  let r1 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
  let r2 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 dj in
  (* reference each scheme against its own noiseless distribution to
     isolate the hardware effect from the functional deviation *)
  let self_accuracy (r : Dqc.Transform.result) model =
    let measures =
      List.mapi
        (fun k (_, phys) -> (phys, List.length r.data_bit + k))
        r.answer_phys
    in
    let own_ideal = Dqc.Equivalence.dynamic_distribution r in
    accuracy ~model ~shots:2048 r.circuit ~measures ~ideal:own_ideal
  in
  Printf.printf
    "\nFeed-forward dephasing sweep on DJ(AND), accuracy vs own noiseless
distribution (isolates the conditioned-gate hardware cost):\n\n";
  Printf.printf "%-12s %12s %12s\n" "p_ff" "dynamic-1" "dynamic-2";
  List.iter
    (fun p ->
      let model = { Sim.Noise.ideal with Sim.Noise.p_feedforward_z = p } in
      Printf.printf "%-12.2f %12.4f %12.4f\n" p (self_accuracy r1 model)
        (self_accuracy r2 model))
    [ 0.0; 0.05; 0.1; 0.2; 0.4 ]
