(* Why dynamic-2 beats dynamic-1: a study over the nine Toffoli-based
   DJ benchmarks of Table II / Fig 7.

   The paper's Algorithm 1 emits gates in pattern order without
   checking that skipped pending gates commute.  For Toffoli networks
   this reorders a data qubit's closing Hadamard past a data-data CX,
   so the mid-circuit measurement that feeds the classically
   controlled gates happens in the wrong basis.  Dynamic-1 places
   those conditioned gates on a live superposed data qubit and the
   distribution visibly deviates; dynamic-2 confines them to a
   basis-state ancilla iteration and (for single-Toffoli parities)
   stays exact.

   This example prints, per benchmark: the unsound reorderings the
   transformation performed, and the exact accuracy of both schemes.

   Run with: dune exec examples/dj_toffoli_study.exe *)

let () =
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      let dj = Algorithms.Dj.circuit o in
      let r1 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
      let r2 = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 dj in
      Printf.printf "%s (%d Toffoli gates)\n" o.name
        (Algorithms.Oracle.toffoli_count o);
      let describe label (r : Dqc.Transform.result) =
        Printf.printf
          "  %-10s iterations=%d conditioned=%d  TV distance=%.4f\n" label
          (List.length r.iteration_order)
          (Dqc.Transform.conditioned_count r)
          (Dqc.Equivalence.tv_distance dj r);
        List.iter
          (fun (v : Dqc.Transform.violation) ->
            Printf.printf "    unsound: emitted %s over [%s] in iteration %d\n"
              (Circuit.Instruction.to_string v.emitted)
              (String.concat "; "
                 (List.map Circuit.Instruction.to_string v.jumped_over))
              v.iteration)
          r.violations
      in
      describe "dynamic-1" r1;
      describe "dynamic-2" r2;
      (* the sound scheduler refuses both — proving no sound 2-qubit
         schedule exists for this decomposition *)
      let sound_fails scheme =
        try
          ignore (Dqc.Toffoli_scheme.transform ~mode:`Sound scheme dj);
          false
        with Dqc.Transform.Not_transformable _ -> true
      in
      Printf.printf "  sound scheduling impossible: dyn1=%b dyn2=%b\n\n"
        (sound_fails Dqc.Toffoli_scheme.Dynamic_1)
        (sound_fails Dqc.Toffoli_scheme.Dynamic_2))
    Algorithms.Dj_toffoli.oracles;

  (* Lemma 1 on CARRY: three Toffolis sharing the answer target share
     one ancilla iteration. *)
  let carry = Option.get (Algorithms.Dj_toffoli.oracle_by_name "CARRY") in
  let dj = Algorithms.Dj.circuit carry in
  let fresh =
    Dqc.Toffoli_scheme.transform (Dqc.Toffoli_scheme.Dynamic_2_shared `Fresh) dj
  in
  let shared = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 dj in
  Printf.printf
    "Lemma 1 on CARRY: fresh ancillas need %d iterations, shared %d\n"
    (List.length fresh.iteration_order)
    (List.length shared.iteration_order);

  (* the repair: one extra physical data slot keeps the CX sandwich
     quantum, and the sound scheduler certifies exactness *)
  print_endline
    "\nThe multi-slot repair (Dqc.Transform.transform ~slots, an extension):";
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      let dj = Algorithms.Dj.circuit o in
      let prepared =
        Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_1 dj
      in
      match Dqc.Transform.min_exact_slots prepared with
      | Some k ->
          let m = Dqc.Transform.transform ~mode:`Sound ~slots:k prepared in
          Printf.printf
            "  %-8s dynamic-1 provably exact with %d data slot(s): %d qubits \
             (traditional %d), TV %.1e\n"
            o.name k
            (Circuit.Circ.num_qubits m.circuit)
            (Circuit.Circ.num_qubits dj)
            (Dqc.Equivalence.tv_distance prepared m)
      | None -> Printf.printf "  %-8s no certified width\n" o.name)
    (List.filteri (fun k _ -> k < 3) Algorithms.Dj_toffoli.oracles)
