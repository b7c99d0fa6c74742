(* Iterative quantum phase estimation on two qubits.

   The paper's Section III contrasts the BV dynamic circuit (whose
   iterations can be permuted freely) with QPE (whose iterations are
   gate-dependent: each phase correction is conditioned on every
   earlier measured digit).  This example builds both forms, shows the
   feed-forward structure, and demonstrates that the two-qubit
   iterative circuit reproduces the traditional distribution exactly —
   for every phase, not just exactly-representable ones.

   Run with: dune exec examples/qpe_dynamic.exe -- [phase] [bits] *)

let () =
  let phase =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.3
  in
  let bits =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4
  in
  let traditional = Algorithms.Qpe.traditional ~bits ~phase in
  let iterative = Algorithms.Qpe.iterative ~bits ~phase in
  Printf.printf "Estimating phase %.6f with %d bits\n\n" phase bits;
  Printf.printf "traditional QPE: %d qubits, %d gates, depth %d\n"
    (Circuit.Circ.num_qubits traditional)
    (Circuit.Metrics.gate_count traditional)
    (Circuit.Metrics.traditional_depth traditional);
  Printf.printf "iterative QPE:   %d qubits, %d gates, depth %d\n\n"
    (Circuit.Circ.num_qubits iterative)
    (Circuit.Metrics.gate_count iterative)
    (Circuit.Metrics.dynamic_depth iterative);
  Circuit.Draw.print iterative;

  (* iteration order matters here, unlike BV: the j-th iteration reads
     classical bits 0..j-1 *)
  let conditioned =
    List.filter_map
      (fun (i : Circuit.Instruction.t) ->
        match i with
        | Conditioned (c, _) ->
            Some
              (String.concat ","
                 (List.map (fun (b, _) -> "c" ^ string_of_int b)
                    c.Circuit.Instruction.bits))
        | Unitary _ | Measure _ | Reset _ | Barrier _ -> None)
      (Circuit.Circ.instructions iterative)
  in
  Printf.printf "\nfeed-forward corrections read: %s\n"
    (String.concat "; " conditioned);

  let dt = Algorithms.Qpe.distribution `Traditional ~bits ~phase in
  let di = Algorithms.Qpe.distribution `Iterative ~bits ~phase in
  let best = Algorithms.Qpe.best_estimate ~bits ~phase in
  Printf.printf "\nbest %d-bit estimate: %d (= %.6f)\n" bits best
    (float_of_int best /. float_of_int (1 lsl bits));
  Printf.printf "P[best]: traditional %.4f, iterative %.4f\n"
    (Sim.Dist.prob dt best) (Sim.Dist.prob di best);
  Printf.printf "exact TV distance between the two forms: %.9f\n"
    (Sim.Dist.tv_distance dt di);

  (* 1024 shots of the dynamic circuit *)
  let hist = Sim.Backend.run ~shots:1024 iterative in
  Printf.printf "\n1024 shots of the 2-qubit iterative QPE:\n";
  Format.printf "%a@." Sim.Runner.pp hist
