(* Bernstein-Vazirani on two physical qubits: the scenario that
   motivates dynamic quantum circuits (Fig 3 of the paper).

   A traditional n-bit BV circuit needs n+1 qubits; the DQC needs two,
   re-using the physical data qubit across n iterations separated by
   mid-circuit measurement and active reset.  The hidden string is
   recovered deterministically from the classical register.

   Run with: dune exec examples/bv_dynamic.exe -- [hidden-string] *)

let () =
  let s = if Array.length Sys.argv > 1 then Sys.argv.(1) else "1011" in
  let traditional = Algorithms.Bv.circuit s in
  Printf.printf "Hidden string: %s\n\n" s;
  Printf.printf "Traditional circuit: %d qubits, %d gates, depth %d\n"
    (Circuit.Circ.num_qubits traditional)
    (Circuit.Metrics.gate_count traditional)
    (Circuit.Metrics.traditional_depth traditional);

  let r = Dqc.Transform.transform traditional in
  Printf.printf "Dynamic circuit:     %d qubits, %d gates, depth %d, %d iterations\n\n"
    (Circuit.Circ.num_qubits r.circuit)
    (Circuit.Metrics.gate_count r.circuit)
    (Circuit.Metrics.dynamic_depth r.circuit)
    (List.length r.iteration_order);
  Circuit.Draw.print r.circuit;

  (* BV is Toffoli-free: the sound scheduler succeeds, certifying the
     DQC is exactly equivalent without even simulating. *)
  let sound = Dqc.Transform.transform ~mode:`Sound traditional in
  Printf.printf "\nSound scheduling succeeded (certified reordering): %b\n"
    (Circuit.Circ.equal sound.circuit r.circuit);

  (* The register after one run holds the hidden string with
     probability 1 — check it exactly and with shots. *)
  let dist = Sim.Exact.register_distribution r.circuit in
  let expected = Algorithms.Bv.expected_outcome s in
  Printf.printf "Exact P[register = %s] = %.4f\n" s (Sim.Dist.prob dist expected);

  let hist = Sim.Backend.run ~shots:1024 r.circuit in
  Printf.printf "1024 shots, observed %s in %d shots\n"
    s (Sim.Runner.count hist expected);

  (* On a real device with limited connectivity the traditional
     circuit additionally pays routing SWAPs; the 2-qubit dynamic
     circuit never does. *)
  let coupling = Transpile.Coupling.line (String.length s + 1) in
  let routed = Transpile.Route.run ~coupling traditional in
  Printf.printf
    "\nOn a line-topology device: traditional needs %d SWAPs (%d gates \
     after routing),\nthe dynamic circuit needs none.\n"
    routed.Transpile.Route.swaps_inserted
    (Circuit.Metrics.gate_count routed.Transpile.Route.circuit);

  (* Scaling: qubit savings grow linearly with n. *)
  print_endline "\nQubit scaling (traditional vs dynamic):";
  List.iter
    (fun n ->
      let s = String.init n (fun k -> if k mod 2 = 0 then '1' else '0') in
      let c = Algorithms.Bv.circuit s in
      let r = Dqc.Transform.transform c in
      Printf.printf "  n = %2d : %2d qubits -> %d qubits (depth %2d -> %3d)\n" n
        (Circuit.Circ.num_qubits c)
        (Circuit.Circ.num_qubits r.circuit)
        (Circuit.Metrics.traditional_depth c)
        (Circuit.Metrics.dynamic_depth r.circuit))
    [ 2; 4; 8; 12; 16 ]
