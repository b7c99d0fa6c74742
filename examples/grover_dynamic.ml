(* Grover search and the limits of 2-qubit dynamization.

   The paper's introduction motivates Toffoli networks with Grover's
   algorithm; this example (an extension beyond the paper's
   evaluation) runs Grover end-to-end through the multi-control
   reduction pass and then shows *why* Grover cannot be squeezed onto
   two qubits by Algorithm 1: its diffuser makes every qubit interact
   with every other in both directions, so the Case-2 interaction
   digraph is cyclic — the library detects and reports this instead of
   silently producing a wrong circuit.

   Run with: dune exec examples/grover_dynamic.exe *)

let () =
  let n = 3 and marked = 5 in
  Printf.printf "Grover search over %d items, marked item %d\n" (1 lsl n) marked;
  let c = Algorithms.Grover.circuit ~n ~marked in
  Printf.printf "circuit: %d qubits, %d gates (optimal %d iterations)\n"
    (Circuit.Circ.num_qubits c)
    (Circuit.Metrics.gate_count c)
    (Algorithms.Grover.optimal_iterations n);

  (* exact success probability *)
  Printf.printf "exact success probability: %.4f\n"
    (Algorithms.Grover.success_probability ~n ~marked);

  (* reduce the multi-control Z/X gates to 2-control Toffolis with the
     V-chain pass and re-verify *)
  let reduced = Decompose.Pass.reduce_mct c in
  Printf.printf "after MCT reduction: %d qubits, %d gates\n"
    (Circuit.Circ.num_qubits reduced)
    (Circuit.Metrics.gate_count reduced);
  let dist = Sim.Exact.measure_all_distribution reduced in
  let marginal = Sim.Dist.marginal ~bits:(List.init n (fun k -> k)) dist in
  Printf.printf "success probability after reduction: %.4f\n"
    (Sim.Dist.prob marginal marked);

  (* 1024 shots, like the paper's experiments *)
  let hist =
    Sim.Backend.run_measured ~shots:1024
      ~measures:(List.init n (fun q -> (q, q)))
      c
  in
  Printf.printf "1024 shots: marked item observed %d times\n\n"
    (Sim.Runner.count hist marked);

  (* attempt the DQC transformation: Grover interleaves Hadamards with
     gates controlled by the same qubits across iterations, so no
     sound single-pass-per-qubit schedule exists.  The sound scheduler
     proves it; Algorithm 1 "succeeds" only by unsound reordering and
     the result is far from equivalent. *)
  print_endline "Attempting the 1-qubit dynamic transformation...";
  let barenco = Decompose.Pass.substitute_toffoli `Barenco reduced in
  (try
     ignore (Dqc.Transform.transform ~mode:`Sound barenco);
     print_endline "unexpectedly succeeded!"
   with
  | Dqc.Interaction.Cyclic qs ->
      Printf.printf
        "sound scheduler: rejected (cyclic interaction among qubits {%s})\n"
        (String.concat ", " (List.map string_of_int qs))
  | Dqc.Transform.Not_transformable msg ->
      Printf.printf "sound scheduler: rejected (%s)\n" msg);
  let unsound = Dqc.Transform.transform barenco in
  Printf.printf
    "Algorithm 1 still emits a circuit, but with %d unsound reorderings\n\
     and TV distance %.4f from real Grover - the violation report is the\n\
     tool's way of saying this algorithm does not dynamize.\n"
    (List.length unsound.violations)
    (Dqc.Equivalence.tv_distance barenco unsound)
