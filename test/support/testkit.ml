(* Circuits shared by the tests and the benchmark harness: the random
   dynamic-circuit generator every property and differential test
   draws from, with its QCheck2 wrapper and its unitary, Clifford and
   certifiable parts; the oracle corpus of the benchmark-wide lint and
   certification tests, the dyn2 Toffoli ladder, the mixed-sparsity
   hybrid witness, the teleportation circuit, the paper jobs' compile
   and corpus and the compile corpus; the exact walk's fork-everything
   leaves; and the per-shot oracles of sampled and noisy runs.  Each
   exists once, so a test and a bench row that name the same workload
   run the same circuit. *)

open Circuit

(* Random dynamic circuits, the one grammar every property and
   differential test draws from: 1 to [max_qubits] qubits, 1 to 4 bits
   and 0 to [max_instrs] instructions, each one of
   - a one-qubit gate: H, X, Y, Z, S, Sdg, T, Tdg, V, Vdg, or Rx, Ry,
     Rz or Phase at a random angle;
   - a CX, a CZ or a Toffoli, about a fifth of the instructions (the
     analyzer's affine rows and the certifier lean on them);
   - any one-qubit gate under one or two controls;
   - a measurement, a reset or a barrier;
   - a one-qubit gate, plain or under one control, conditioned on one
     bit being 0 or 1.
   A gate acts on distinct qubits, as many as the register holds, so
   on one qubit a CX is an X.  Every draw comes from [rng] in a fixed
   order: one [rng] state and one pair of bounds always give the same
   circuit. *)
let random_dynamic_circuit ~max_qubits ~max_instrs rng =
  let int n = Random.State.int rng n and bool () = Random.State.bool rng in
  let nq = 1 + int max_qubits in
  let nb = 1 + int 4 in
  let m = int (max_instrs + 1) in
  let gate () =
    let angle () = Random.State.float rng 6.28 in
    match int 14 with
    | 10 -> Gate.Rx (angle ())
    | 11 -> Gate.Ry (angle ())
    | 12 -> Gate.Rz (angle ())
    | 13 -> Gate.Phase (angle ())
    | k -> Gate.[| H; X; Y; Z; S; Sdg; T; Tdg; V; Vdg |].(k)
  in
  (* [k] distinct qubits, at most the register's, the last drawn first *)
  let rec qubits k acc =
    if List.length acc = min k nq then acc
    else
      let q = int nq in
      qubits k (if List.mem q acc then acc else q :: acc)
  in
  (* [g] on the first of [k] qubits under the others *)
  let on k g =
    match qubits k [] with
    | target :: controls -> Instruction.app ~controls g target
    | [] -> assert false
  in
  let instr _ =
    match int 18 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> Instruction.Unitary (on 1 (gate ()))
    | 7 | 8 | 9 -> Instruction.Unitary (on 2 (if bool () then Gate.X else Z))
    | 10 -> Instruction.Unitary (on 3 Gate.X)
    | 11 ->
        let g = gate () in
        Instruction.Unitary (on (2 + int 2) g)
    | 12 | 13 ->
        let qubit = int nq in
        Instruction.Measure { qubit; bit = int nb }
    | 14 -> Instruction.Reset (int nq)
    | 15 | 16 ->
        let bit = int nb in
        let cond = Instruction.cond_bit bit (bool ()) in
        let g = gate () in
        Instruction.Conditioned (cond, on (1 + int 2) g)
    | _ -> Instruction.Barrier (qubits (1 + int nq) [])
  in
  Circ.create ~roles:(Array.make nq Circ.Data) ~num_bits:nb (List.init m instr)

(* [random_dynamic_circuit] as a QCheck2 generator.  A failing circuit
   shrinks by dropping one instruction at a time until none can go;
   qubits and bits stay. *)
let circuit_gen ~max_qubits ~max_instrs =
  let shrink c =
    let instrs = Circ.instructions c in
    Seq.init (List.length instrs) (fun k ->
        Circ.create ~roles:(Circ.roles c) ~num_bits:(Circ.num_bits c)
          (List.filteri (fun i _ -> i <> k) instrs))
  in
  QCheck2.Gen.make_primitive
    ~gen:(random_dynamic_circuit ~max_qubits ~max_instrs)
    ~shrink

(* A property over [circuit_gen]'s draws; a counterexample prints as
   the OpenQASM that reproduces it. *)
let circuit_test ~name ~count ~max_qubits ~max_instrs prop =
  QCheck2.Test.make ~name ~count ~print:Qasm.to_string
    (circuit_gen ~max_qubits ~max_instrs)
    prop

(* The unitary part of a draw: its measurements, resets and barriers
   dropped and its conditioned gates made plain. *)
let unitary_part =
  Circ.map_instructions (function
    | Instruction.Unitary a | Instruction.Conditioned (_, a) ->
        [ Instruction.Unitary a ]
    | Instruction.Measure _ | Instruction.Reset _ | Instruction.Barrier _ ->
        [])

(* The Clifford part of a draw, which the tableau runs: a plain gate
   outside {H, X, Y, Z, S, Sdg} becomes a fixed stand-in from that set
   (T and Phase an S, Tdg an Sdg, V, Vdg and Rx an X, Ry a Y, Rz a Z),
   and a controlled gate a CX (X-like gates) or a CZ on its first
   control.  Measurements, resets, barriers and conditions stay. *)
let clifford_part =
  let app (a : Instruction.app) =
    match a.controls with
    | [] ->
        let g =
          match a.gate with
          | (Gate.H | X | Y | Z | S | Sdg) as g -> g
          | T | Phase _ -> S
          | Tdg -> Sdg
          | V | Vdg | Rx _ -> X
          | Ry _ -> Y
          | Rz _ -> Z
        in
        Instruction.app g a.target
    | c :: _ ->
        let g =
          match a.gate with
          | Gate.H | X | Y | V | Vdg | Rx _ | Ry _ -> Gate.X
          | Z | S | Sdg | T | Tdg | Rz _ | Phase _ -> Gate.Z
        in
        Instruction.app ~controls:[ c ] g a.target
  in
  Circ.map_instructions (function
    | Instruction.Unitary a -> [ Instruction.Unitary (app a) ]
    | Instruction.Conditioned (cond, a) ->
        [ Instruction.Conditioned (cond, app a) ]
    | (Instruction.Measure _ | Instruction.Reset _ | Instruction.Barrier _) as i
      ->
        [ i ])

(* The part of a draw the path-sum certifier reads: Rx and Rz angles
   rounded to multiples of pi/2 and Phase angles to multiples of pi/4,
   a Ry made a Y, and a controlled or conditioned H an X. *)
let certifiable_part c =
  let snap step theta = step *. Float.round (theta /. step) in
  let app ~guarded (a : Instruction.app) =
    let gate =
      match a.gate with
      | Gate.Rx t -> Gate.Rx (snap (Float.pi /. 2.) t)
      | Rz t -> Rz (snap (Float.pi /. 2.) t)
      | Phase t -> Phase (snap (Float.pi /. 4.) t)
      | Ry _ -> Y
      | H when guarded || a.controls <> [] -> X
      | (H | X | Y | Z | S | Sdg | T | Tdg | V | Vdg) as g -> g
    in
    { a with gate }
  in
  Circ.map_instructions
    (function
      | Instruction.Conditioned (cond, a) ->
          [ Instruction.Conditioned (cond, app ~guarded:true a) ]
      | Unitary a -> [ Unitary (app ~guarded:false a) ]
      | (Measure _ | Reset _ | Barrier _) as i -> [ i ])
    c

(* The Table II oracles plus generated AND/OR/NAND/MAJ oracles of 4 to
   8 inputs, whose C^nX reductions the paper does not tabulate. *)
let table2_and_generated_oracles =
  Algorithms.Dj_toffoli.oracles
  @ List.map Algorithms.Mct_bench.and_n [ 4; 6; 8 ]
  @ List.map Algorithms.Mct_bench.or_n [ 4; 6 ]
  @ List.map Algorithms.Mct_bench.nand_n [ 4; 6 ]
  @ List.map Algorithms.Mct_bench.majority_n [ 5; 7 ]

(* DJ(AND), the Table II oracle most engine tests run, and its dyn2
   transform. *)
let dj_and () =
  Algorithms.Dj.circuit
    (Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND"))

let dyn2_and () =
  (Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 (dj_and ()))
    .Dqc.Transform.circuit

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

(* perfbench's paper-jobs corpus, 70 jobs: the Table I BV strings and
   the DJ circuits of the Table II oracles and the MCT suite, each
   under dyn1 and dyn2 as [paper_job] compiles it, its measurements
   appended, named like "DJ(AND) dyn1". *)
let paper_jobs () =
  let benchmarks =
    List.map
      (fun s -> ("BV_" ^ s, Algorithms.Bv.circuit s))
      Algorithms.Bv.paper_benchmarks
    @ List.map
        (fun (o : Algorithms.Oracle.t) ->
          ("DJ(" ^ o.name ^ ")", Algorithms.Dj.circuit o))
        (Algorithms.Dj_toffoli.oracles @ Algorithms.Mct_bench.suite)
  in
  List.concat_map
    (fun (name, c) ->
      List.map
        (fun (tag, scheme) ->
          let c, measures = paper_job scheme c in
          ( name ^ " " ^ tag,
            Sim.Measurement_plan.instrument
              (Sim.Measurement_plan.of_pairs measures)
              c ))
        Dqc.Toffoli_scheme.[ ("dyn1", Dynamic_1); ("dyn2", Dynamic_2) ])
    benchmarks

(* perfbench's compile-corpus, 83 compiles as (name, options, input):
   the Table I BV strings under the default options; the DJ circuits of
   the Table II oracles and AND_4/6/8, OR_4, MAJ_5 and XOR_16 under
   dyn1 and dyn2, each with the optimizer off and on, named like
   "DJ(AND) dyn1 opt"; and GROVER-3, SIMON-1011 and QPE-4 through the
   reuse flow, named like "QPE-4 reuse". *)
let compile_corpus () =
  let module O = Dqc.Pipeline.Options in
  let module A = Algorithms in
  let bv =
    List.map
      (fun s -> ("BV_" ^ s, O.default, A.Bv.circuit s))
      A.Bv.paper_benchmarks
  in
  let mct =
    A.Mct_bench.[ and_n 4; and_n 6; and_n 8; or_n 4; majority_n 5; xor_n 16 ]
  in
  let dj =
    List.concat_map
      (fun (o : A.Oracle.t) ->
        List.concat_map
          (fun (tag, scheme) ->
            List.map
              (fun optimize ->
                ( Printf.sprintf "DJ(%s) %s%s" o.name tag
                    (if optimize then " opt" else ""),
                  O.default |> O.with_scheme scheme |> O.with_optimize optimize,
                  A.Dj.circuit o ))
              [ false; true ])
          Dqc.Toffoli_scheme.[ ("dyn1", Dynamic_1); ("dyn2", Dynamic_2) ])
      (A.Dj_toffoli.oracles @ mct)
  in
  let reuse =
    List.map
      (fun (name, c) -> (name ^ " reuse", O.with_reuse true O.default, c))
      [
        ("GROVER-3", A.Grover.measured ~n:3 ~marked:5);
        ("SIMON-1011", A.Simon.measured_circuit "1011");
        ("QPE-4", A.Qpe.kitaev ~bits:4 ~phase:(3. /. 8.));
      ]
  in
  bv @ dj @ reuse

(* The leaves of the exact walk forking at every measurement, trailing
   ones included, on the dense engine: the (register, probability) of
   each branch above [prune] (default 1e-12), in depth-first order. *)
let leaves ?(prune = 1e-12) c =
  let module E = Sim.Statevector.Dense_engine in
  let program = Sim.Program.compile c in
  let acc = ref [] in
  Sim.Walk.probabilities
    (module E)
    ~prune (Sim.Walk.program program)
    (E.create (Circ.num_qubits c) ~num_bits:(Circ.num_bits c))
    (fun st p -> acc := (E.register st, p) :: !acc);
  List.rev !acc

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

(* The per-shot noisy trajectories that [Sim.Noise.run_shots] ran
   before it walked the outcome tree, kept as the noisy walk's oracle:
   every shot runs the whole compiled program alone on the dense
   statevector, drawing each channel from its own stream, and a
   deterministic prefix the model injects nothing into runs once.  For
   a fixed seed [Sim.Noise.run_shots] must return this histogram byte
   for byte, on any domain count. *)
module Trajectory = struct
  module Noise = Sim.Noise
  module Program = Sim.Program
  module State = Sim.State
  module Statevector = Sim.Statevector

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

  let rec qubit_of_bit bit =
    if bit <= 1 then 0 else 1 + qubit_of_bit (bit lsr 1)

  (* The qubits a unitary op touches, in the order its channels draw
     randomness: the controls ascending, then the target. *)
  let touched ~num_qubits (bit, cmask) =
    let qs = ref [ qubit_of_bit bit ] in
    for q = num_qubits - 1 downto 0 do
      if cmask land (1 lsl q) <> 0 then qs := q :: !qs
    done;
    !qs

  let run_ops ~rng ~(model : Noise.model) ~num_qubits st program =
    let maybe_depolarize ~p q =
      if p > 0. && Random.State.float rng 1.0 < p then
        Statevector.apply_gate st (random_pauli rng) q
    in
    (* quantum-trajectory unraveling of amplitude damping: jump with
       probability gamma.P(1) (relax to |0>), otherwise apply the
       no-jump operator diag(1, sqrt(1-gamma)) and renormalize *)
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
               [
                 [ (1., 0.); (0., 0.) ]; [ (0., 0.); (sqrt (1. -. gamma), 0.) ];
               ])
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
          (* the feed-forward latency penalty applies whether or not
             the gate fires: the controller must wait for the
             classical value *)
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

  (* The shared prefix is sound under noise only when the model
     injects nothing into it: no per-unitary channels, and no
     feed-forward dephasing if the prefix holds a conditioned op. *)
  let prefix_noise_free (model : Noise.model) prefix_program =
    model.p_depol1 = 0. && model.p_depol2 = 0. && model.p_amp_damp = 0.
    && (model.p_feedforward_z = 0.
       || Array.for_all
            (function
              | Program.Kcond _ -> false
              | Program.Kx _ | Program.Kh _ | Program.Kphase _
              | Program.Kdiag _ | Program.Ku2 _ | Program.Kmeasure _
              | Program.Kreset _ ->
                  true)
            (Program.kernels prefix_program))

  let histogram ~seed ~model ~shots c =
    Noise.validate model;
    let width = Circ.num_bits c in
    let num_qubits = Circ.num_qubits c in
    let program = Program.compile c in
    let prefix_program, suffix_program = Program.split_prefix program in
    let trajectory =
      if prefix_noise_free model prefix_program then begin
        let cached = State.create num_qubits ~num_bits:(Circ.num_bits c) in
        Program.exec ~random:Program.no_random cached prefix_program;
        fun rng ->
          run_ops ~rng ~model ~num_qubits (State.copy cached) suffix_program
      end
      else fun rng ->
        let st = State.create num_qubits ~num_bits:(Circ.num_bits c) in
        run_ops ~rng ~model ~num_qubits st program
    in
    (* every trajectory draws its own noise: one shot at a time *)
    Sim.Parallel.run ~domains:1 ~seed ~width ~shots (fun rngs ~lo ~hi ->
        List.init (hi - lo) (fun i -> (trajectory rngs.(lo + i), 1)))
end

let trajectory_histogram = Trajectory.histogram
