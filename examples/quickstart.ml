(* Quickstart: build the paper's running example — the Deutsch-Jozsa
   circuit for F(a, b) = a + b (the OR oracle of Fig 1) — transform it
   into a dynamic quantum circuit with both schemes, and verify the
   result.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Pick the OR oracle (Fig 1: CX, CX, Toffoli) and wrap it in the
     Deutsch-Jozsa skeleton. *)
  let oracle = Option.get (Algorithms.Dj_toffoli.oracle_by_name "OR") in
  let traditional = Algorithms.Dj.circuit oracle in
  print_endline "Traditional DJ circuit for F(a,b) = a + b:";
  Circuit.Draw.print traditional;

  (* 2. Transform with the paper's two Toffoli schemes. *)
  let dyn1 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 traditional in
  let dyn2 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 traditional in

  print_endline "Dynamic-1 realization (Barenco CV netlist, Eqn 2):";
  Circuit.Draw.print dyn1.circuit;
  print_endline "Dynamic-2 realization (ancilla-unrolled netlist, Eqn 4):";
  Circuit.Draw.print dyn2.circuit;

  (* 3. Compare complexities with the paper's conventions. *)
  let report label c depth =
    Printf.printf "  %-12s %d qubits, %2d gates, depth %2d\n" label
      (Circuit.Circ.num_qubits c)
      (Circuit.Metrics.gate_count c)
      depth
  in
  print_endline "Complexity (CV gates expanded to Clifford+T for counting):";
  report "traditional"
    (Decompose.Pass.substitute_toffoli `Clifford_t traditional)
    (Circuit.Metrics.traditional_depth
       (Decompose.Pass.substitute_toffoli `Clifford_t traditional));
  let expanded r = Decompose.Pass.expand_cv r.Dqc.Transform.circuit in
  report "dynamic-1" (expanded dyn1)
    (Circuit.Metrics.dynamic_depth (expanded dyn1));
  report "dynamic-2" (expanded dyn2)
    (Circuit.Metrics.dynamic_depth (expanded dyn2));

  (* 4. Check functional equivalence exactly (no sampling noise). *)
  Printf.printf "\nExact TV distance to the traditional distribution:\n";
  Printf.printf "  dynamic-1: %.4f  (%d unsound reorderings)\n"
    (Dqc.Equivalence.tv_distance traditional dyn1)
    (List.length dyn1.violations);
  Printf.printf "  dynamic-2: %.4f  (%d unsound reorderings, still exact)\n"
    (Dqc.Equivalence.tv_distance traditional dyn2)
    (List.length dyn2.violations);

  (* 5'. Or drive the whole flow through the pipeline facade — here
     with the multi-slot extension (one extra data qubit) and lowering
     to the IBM native basis, sound-certified exact. *)
  let options =
    Dqc.Pipeline.Options.(
      default
      |> with_scheme Dqc.Toffoli_scheme.Dynamic_1
      |> with_mode `Sound |> with_slots 2 |> with_native true
      |> with_peephole true)
  in
  let compiled = Dqc.Pipeline.compile ~options traditional in
  print_endline
    "\nPipeline: dynamic-1, 2 data slots, sound schedule, native basis:";
  print_endline (Dqc.Pipeline.to_string compiled);

  (* 5. Sample 1024 shots from the dynamic-2 circuit, like the paper. *)
  let nd = List.length dyn2.data_bit in
  let measures =
    List.mapi (fun k (_, phys) -> (phys, nd + k)) dyn2.answer_phys
  in
  let hist = Sim.Backend.run_measured ~shots:1024 ~measures dyn2.circuit in
  print_endline "\n1024 shots of the dynamic-2 DQC (data bits then answer bit):";
  Format.printf "%a@." Sim.Runner.pp hist
