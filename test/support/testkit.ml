(* Circuits shared by the tests and the benchmark harness: the random
   dynamic-circuit generator, the oracle corpus of the benchmark-wide
   lint and certification tests, the dyn2 Toffoli ladder, the
   mixed-sparsity hybrid witness, the teleportation circuit and the
   paper jobs' compile; and the per-shot replay oracle of sampled runs.
   Each exists once, so a test and a bench row that name the same
   workload run the same circuit. *)

open Circuit

(* Random dynamic circuits: Clifford+T 1-qubit gates, CX/CZ, Toffolis,
   mid-circuit measures, resets and conditioned gates, on 2..max_qubits
   qubits and 5..max_instrs instructions.  Every draw comes from [rng]
   in a fixed order, so one seed and one pair of bounds always give the
   same stream. *)
let random_dynamic_circuit ~max_qubits ~max_instrs rng =
  let nq = 2 + Random.State.int rng (max_qubits - 1) in
  let nb = 1 + Random.State.int rng 2 in
  let m = 5 + Random.State.int rng (max_instrs - 4) in
  let gates = Gate.[ H; X; Y; Z; S; Sdg; T; Tdg; V; Rz 0.37 ] in
  let any_gate () = List.nth gates (Random.State.int rng (List.length gates)) in
  let instr _ =
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        Instruction.Unitary
          (Instruction.app (any_gate ()) (Random.State.int rng nq))
    | 4 | 5 ->
        let c = Random.State.int rng nq and t = Random.State.int rng nq in
        let g = if Random.State.bool rng then Gate.X else Gate.Z in
        if c = t then Instruction.Unitary (Instruction.app g t)
        else Instruction.Unitary (Instruction.app ~controls:[ c ] g t)
    | 6 ->
        let c1 = Random.State.int rng nq
        and c2 = Random.State.int rng nq
        and t = Random.State.int rng nq in
        if c1 = t || c2 = t || c1 = c2 then
          Instruction.Unitary (Instruction.app Gate.X t)
        else Instruction.Unitary (Instruction.app ~controls:[ c1; c2 ] Gate.X t)
    | 7 ->
        Instruction.Measure
          { qubit = Random.State.int rng nq; bit = Random.State.int rng nb }
    | 8 -> Instruction.Reset (Random.State.int rng nq)
    | _ ->
        Instruction.Conditioned
          ( Instruction.cond_bit (Random.State.int rng nb)
              (Random.State.bool rng),
            Instruction.app (any_gate ()) (Random.State.int rng nq) )
  in
  let roles = Array.make nq Circ.Data in
  Circ.create ~roles ~num_bits:nb (List.init m instr)

(* The Table II oracles plus generated AND/OR/NAND/MAJ oracles of 4 to
   8 inputs, whose C^nX reductions the paper does not tabulate. *)
let table2_and_generated_oracles =
  Algorithms.Dj_toffoli.oracles
  @ List.map Algorithms.Mct_bench.and_n [ 4; 6; 8 ]
  @ List.map Algorithms.Mct_bench.or_n [ 4; 6 ]
  @ List.map Algorithms.Mct_bench.nand_n [ 4; 6 ]
  @ List.map Algorithms.Mct_bench.majority_n [ 5; 7 ]

(* A Table-I-style AND network under the paper's ancilla-unrolled
   dynamic-2 substitution: inputs 0..k-1, ladder ancillas k..2k-3, the
   AND of all inputs accumulating on the last ancilla, measured into
   bit 0.  The first [superposed] inputs are H-prepared and measured
   mid-circuit into bits 1..superposed, which defeats the exact
   branching engine (2^superposed leaves) while keeping the static
   amplitude bound at [superposed]; the inputs in [ones] are
   X-prepared.  With [superposed = 0] every shot stays within a handful
   of basis amplitudes whatever the width. *)
let dyn2_ladder ~inputs ~superposed ~ones =
  let k = inputs in
  let nq = (2 * k) - 1 in
  let b =
    Circ.Builder.make ~roles:(Array.make nq Circ.Data)
      ~num_bits:(superposed + 1) ()
  in
  for q = 0 to superposed - 1 do
    Circ.Builder.h b q
  done;
  List.iter (fun q -> Circ.Builder.x b q) ones;
  for q = 0 to superposed - 1 do
    Circ.Builder.measure b ~qubit:q ~bit:(q + 1)
  done;
  Circ.Builder.ccx b 0 1 k;
  for j = 1 to k - 2 do
    Circ.Builder.ccx b (k + j - 1) (j + 1) (k + j)
  done;
  Circ.Builder.measure b ~qubit:(nq - 1) ~bit:0;
  Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_2 (Circ.Builder.build b)

(* Mixed sparsity: [m] qubits in uniform superposition measured up
   front (an amplitude bound too close to the register width for
   sparse), then a basis Toffoli under the dyn2 substitution with
   measure / reset / feed-forward on three more, which the analyzer
   bounds near zero.  Auto plans it per segment and hands the state
   from dense to sparse once per shot. *)
let hybrid_witness ~m =
  let b =
    Circ.Builder.make ~roles:(Array.make (m + 3) Circ.Data) ~num_bits:(m + 1) ()
  in
  for q = 0 to m - 1 do
    Circ.Builder.h b q
  done;
  for q = 0 to m - 1 do
    Circ.Builder.measure b ~qubit:q ~bit:(q + 1)
  done;
  Circ.Builder.x b m;
  Circ.Builder.x b (m + 1);
  Circ.Builder.ccx b m (m + 1) (m + 2);
  Circ.Builder.measure b ~qubit:(m + 2) ~bit:0;
  Circ.Builder.reset b (m + 2);
  Circ.Builder.conditioned b ~bit:0 Gate.X (m + 2);
  Circ.Builder.measure b ~qubit:(m + 2) ~bit:0;
  Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_2 (Circ.Builder.build b)

(* The shape hybrid exists for: a gate-heavy segment at full support
   (H on [n] data qubits, then [layers] rounds of T on each and a CX
   chain) whose measurements collapse the state ahead of a long
   basis-sparse tail ([tail] rounds of the witness's dyn2 Toffoli with
   measure / reset / feed-forward on three more qubits, a = n,
   b = n + 1, t = n + 2).  A measured one-qubit prologue opens a
   sparse first segment.  Auto plans it sparse, dense, dense, sparse,
   ...; at n = 10, layers = 8, tail = 10 the hybrid run beats both
   forced engines. *)
let hybrid_win ~n ~layers ~tail =
  let a = n and b' = n + 1 and t = n + 2 in
  let b =
    Circ.Builder.make ~roles:(Array.make (n + 3) Circ.Data) ~num_bits:(n + 1) ()
  in
  Circ.Builder.h b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:1;
  for q = 0 to n - 1 do
    Circ.Builder.h b q
  done;
  for _ = 1 to layers do
    for q = 0 to n - 1 do
      Circ.Builder.gate b Gate.T q
    done;
    for q = 0 to n - 2 do
      Circ.Builder.cx b q (q + 1)
    done
  done;
  for q = 0 to n - 1 do
    Circ.Builder.measure b ~qubit:q ~bit:(q + 1)
  done;
  for _ = 1 to tail do
    Circ.Builder.x b a;
    Circ.Builder.x b b';
    Circ.Builder.ccx b a b' t;
    Circ.Builder.measure b ~qubit:t ~bit:0;
    Circ.Builder.reset b t;
    Circ.Builder.conditioned b ~bit:0 Gate.X t;
    Circ.Builder.measure b ~qubit:t ~bit:0;
    List.iter (Circ.Builder.reset b) [ a; b'; t ]
  done;
  Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_2 (Circ.Builder.build b)

(* Quantum teleportation of [prep]|0> from qubit 0 to qubit 2: a Bell
   pair on qubits 1 and 2, a Bell measurement of qubits 0 and 1 into
   bits 0 and 1, and the X and Z corrections on qubit 2 conditioned on
   those bits.  Two mid-circuit measurements feed two conditioned
   gates, and qubit 2 itself stays unmeasured. *)
let teleport prep =
  let roles = [| Circ.Data; Circ.Data; Circ.Answer |] in
  let b = Circ.Builder.make ~roles ~num_bits:2 () in
  Circ.Builder.gate b prep 0;
  Circ.Builder.h b 1;
  Circ.Builder.cx b 1 2;
  Circ.Builder.cx b 0 1;
  Circ.Builder.h b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  Circ.Builder.conditioned b ~bit:1 Gate.X 2;
  Circ.Builder.conditioned b ~bit:0 Gate.Z 2;
  Circ.Builder.build b

(* A paper job as perfbench's paper-jobs and [dqc_cli simulate] run
   it: [c] compiled by the default pipeline under [scheme], and the
   measurements its run appends — one bit per answer qubit, after the
   data bits the DQC records. *)
let paper_job scheme c =
  let module O = Dqc.Pipeline.Options in
  let o = Dqc.Pipeline.compile ~options:(O.with_scheme scheme O.default) c in
  let nd = List.length o.data_bit in
  (o.circuit, List.mapi (fun k (_, phys) -> (phys, nd + k)) o.answer_phys)

(* The per-shot replay that sampled runs used before the outcome-tree
   walk, kept as the walk's oracle: shot [i] runs [program] alone from
   |0...0> on engine [E] ([Engine.Core.run]) over the [i]-th split of
   [Random.State.make [| seed |]], one split per shot in index order as
   [Sim.Parallel] splits them, and its register is tallied.  For a
   fixed seed [Sim.Backend.run] must return this histogram byte for
   byte, on any domain count. *)
let replay_histogram (module E : Sim.Engine.Core) ~seed ~shots program =
  let root = Random.State.make [| seed |] in
  let counts = ref [] in
  for _ = 1 to shots do
    let rng = Random.State.split root in
    counts := (E.register (E.run ~rng program), 1) :: !counts
  done;
  Sim.Runner.of_counts ~width:(Sim.Program.num_bits program) !counts
