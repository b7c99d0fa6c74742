(* Differential validation of the sparse basis-amplitude engine
   (Sim.Sparse) against the dense engine: amplitude-for-amplitude
   agreement over hundreds of random dynamic circuits, identical
   seed-deterministic shot streams through the engine-polymorphic
   runner and through Backend.run's plan executor (forced dense and
   sparse, prefix cache on and off, one and two domains, and the
   hybrid witness against forced dense), the over-the-dense-cap
   basis-sparse acceptance workload (a >= 28-qubit dyn2-substituted
   Toffoli ladder), and exact-branch evaluation on either engine
   against the law of forking on every measurement. *)

open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let hist_pairs = Alcotest.(list (pair int int))

let check_hist msg a b =
  Alcotest.check hist_pairs msg (Sim.Runner.to_list a) (Sim.Runner.to_list b)

let dense_engine = (module Sim.Statevector.Dense_engine : Sim.Engine.S)
let sparse_engine = (module Sim.Sparse.Sparse_engine : Sim.Engine.S)

(* Random dynamic circuits from the same family as the analyze-gate
   differential suite: Clifford+T 1-qubit gates, CX/CZ, Toffolis,
   mid-circuit measures, resets and conditioned gates. *)
let random_dynamic_circuit rng =
  let nq = 2 + Random.State.int rng 7 in
  let nb = 1 + Random.State.int rng 2 in
  let m = 5 + Random.State.int rng 28 in
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

(* Sparse kernels mirror the dense float expressions term for term, so
   the engines agree to rounding noise; the pruning threshold
   (|amp|^2 <= 1e-24) is far below this tolerance. *)
let tolerance = 1e-9

(* Replay one circuit on both engines from the same seed and compare
   the final states amplitude for amplitude, plus the classical
   register.  Randomness is consumed only at measure/reset, in source
   order, so a shared seed drives identical branch choices. *)
let engines_agree ~seed c =
  let p = Sim.Program.compile c in
  let dense = Sim.Program.run ~rng:(Random.State.make [| seed |]) p in
  let sparse = Sim.Sparse.run ~rng:(Random.State.make [| seed |]) p in
  let amps = Sim.State.amplitudes dense in
  let ok = ref (Sim.State.register dense = Sim.Sparse.register sparse) in
  for k = 0 to Linalg.Cvec.dim amps - 1 do
    let a = Linalg.Cvec.get amps k and b = Sim.Sparse.amplitude sparse k in
    if
      abs_float (a.Complex.re -. b.Complex.re) > tolerance
      || abs_float (a.Complex.im -. b.Complex.im) > tolerance
    then ok := false
  done;
  !ok

let test_differential_random_circuits () =
  let rng = Random.State.make [| 0x5AB5E |] in
  let failures = ref 0 in
  for k = 0 to 219 do
    let c = random_dynamic_circuit rng in
    List.iter
      (fun seed -> if not (engines_agree ~seed c) then incr failures)
      [ 11; 12 + k; 4242 ]
  done;
  check_int "amplitude mismatches over 220 circuits x 3 seeds" 0 !failures

(* The engine-polymorphic runner must produce byte-identical
   histograms on both engines for a fixed seed: shot i's register
   depends only on (seed, i), never on the state representation. *)
let test_shot_streams_deterministic_across_engines () =
  let rng = Random.State.make [| 0xBEEF |] in
  for k = 0 to 9 do
    let c = random_dynamic_circuit rng in
    let dense = Sim.Runner.run_shots ~seed:(100 + k) ~engine:dense_engine ~shots:150 c in
    let sparse = Sim.Runner.run_shots ~seed:(100 + k) ~engine:sparse_engine ~shots:150 c in
    check_hist (Printf.sprintf "circuit %d" k) dense sparse
  done

(* ------------------------------------------------------------------ *)
(* The basis-sparse acceptance workload: a Toffoli ladder computing
   the AND of its inputs, substituted with the paper's ancilla-
   unrolled dynamic-2 netlist.  Inputs are prepared with X gates, so
   every per-shot state stays within a handful of basis amplitudes
   regardless of width.                                               *)

(* [inputs] X-prepared input qubits 0..k-1, ladder ancillas k..2k-3;
   the last ancilla holds AND of all inputs, measured into bit 0. *)
let toffoli_ladder ~inputs ~ones =
  let k = inputs in
  let nq = (2 * k) - 1 in
  let b = Circ.Builder.make ~roles:(Array.make nq Circ.Data) ~num_bits:1 () in
  List.iter (fun q -> Circ.Builder.x b q) ones;
  Circ.Builder.ccx b 0 1 k;
  for j = 1 to k - 2 do
    Circ.Builder.ccx b (k + j - 1) (j + 1) (k + j)
  done;
  Circ.Builder.measure b ~qubit:(nq - 1) ~bit:0;
  Circ.Builder.build b

let dyn2_ladder ~inputs ~ones =
  Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_2
    (toffoli_ladder ~inputs ~ones)

(* Ground truth at a dense-simulable width: the dyn2 ladder computes
   AND on every input combination, identically on both engines. *)
let test_dyn2_ladder_small_width () =
  let k = 4 in
  for assignment = 0 to (1 lsl k) - 1 do
    let ones =
      List.filter (fun q -> assignment land (1 lsl q) <> 0)
        (List.init k (fun q -> q))
    in
    let c = dyn2_ladder ~inputs:k ~ones in
    check_bool
      (Printf.sprintf "engines agree on assignment %d" assignment)
      true
      (engines_agree ~seed:assignment c);
    let st =
      Sim.Sparse.run
        ~rng:(Random.State.make [| 7 |])
        (Sim.Program.compile c)
    in
    check_bool
      (Printf.sprintf "AND on assignment %d" assignment)
      (assignment = (1 lsl k) - 1)
      (Sim.Sparse.get_bit st 0)
  done

let wide_inputs = 15

let test_dense_cap_exceeded () =
  let c = dyn2_ladder ~inputs:wide_inputs ~ones:(List.init wide_inputs Fun.id) in
  let nq = Circ.num_qubits c in
  check_bool "at least 28 qubits" true (nq >= 28);
  Alcotest.check_raises "dense create"
    (Sim.State.Dense_cap_exceeded
       { qubits = nq; max_qubits = Sim.State.max_qubits })
    (fun () -> ignore (Sim.State.create nq ~num_bits:1))

let test_wide_basis_sparse_acceptance () =
  let all = List.init wide_inputs Fun.id in
  let run ones =
    let c = dyn2_ladder ~inputs:wide_inputs ~ones in
    Sim.Sparse.run ~rng:(Random.State.make [| 3 |]) (Sim.Program.compile c)
  in
  let st = run all in
  check_bool "AND of all-ones inputs" true (Sim.Sparse.get_bit st 0);
  check_bool "state stays basis-sparse" true (Sim.Sparse.nnz st <= 4);
  let st0 = run (List.filter (fun q -> q <> 7) all) in
  check_bool "AND with a zero input" false (Sim.Sparse.get_bit st0 0)

(* Backend integration over the cap: Auto must plan the whole circuit
   sparse (dense cannot even allocate), the run must be deterministic,
   and the forced sparse policy must agree with it. *)
let test_wide_backend_auto () =
  let c = dyn2_ladder ~inputs:wide_inputs ~ones:(List.init wide_inputs Fun.id) in
  (match Sim.Backend.select ~shots:64 c with
  | `Sparse -> ()
  | `Dense | `Stabilizer | `Exact | `Hybrid ->
      Alcotest.fail "expected the sparse plan over the dense cap");
  let auto = Sim.Backend.run ~seed:5 ~shots:64 c in
  let forced =
    Sim.Backend.run ~policy:Sim.Backend.Sparse_statevector ~seed:5 ~shots:64 c
  in
  check_hist "auto = forced sparse" auto forced;
  check_int "deterministic outcome" 64
    (List.fold_left max 0 (List.map snd (Sim.Runner.to_list auto)))

(* ------------------------------------------------------------------ *)
(* Backend.run's plan executor: the forced dense and sparse one-step
   plans must give the same histogram with and without the shared
   prefix, on one domain or two.                                      *)

let test_backend_plans_identical () =
  let rng = Random.State.make [| 0x9A7 |] in
  let runs =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun prefix_cache ->
            List.map (fun domains -> (policy, prefix_cache, domains)) [ 1; 2 ])
          [ true; false ])
      Sim.Backend.[ Statevector_dense; Sparse_statevector ]
  in
  for k = 0 to 29 do
    let c = random_dynamic_circuit rng in
    let run (policy, prefix_cache, domains) =
      Sim.Backend.run ~policy ~seed:(200 + k) ~domains ~prefix_cache
        ~shots:100 c
    in
    let reference = run (List.hd runs) in
    List.iter
      (fun ((policy, prefix_cache, domains) as r) ->
        check_hist
          (Printf.sprintf "circuit %d, %s, prefix cache %b, %d domain(s)" k
             (Sim.Backend.policy_to_string policy)
             prefix_cache domains)
          reference (run r))
      runs
  done

(* The mixed-sparsity witness (bench/main.ml's hybrid witness at width
   [m]): [m] qubits in uniform superposition measured up front — an
   amplitude bound too close to the register width for sparse — then a
   basis Toffoli under the dyn2 substitution with measure / reset /
   feed-forward on three more, which the analyzer bounds near zero.
   Auto runs it hybrid, handing the state from dense to sparse once
   per shot after a shared dense prefix. *)
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

let test_hybrid_witness () =
  let shots = 64 in
  List.iter
    (fun m ->
      let c = hybrid_witness ~m in
      (match Sim.Backend.select ~shots c with
      | `Hybrid -> ()
      | (`Dense | `Sparse | `Stabilizer | `Exact) as e ->
          Alcotest.failf "m = %d: expected hybrid, Auto selected %s" m
            (Sim.Backend.engine_name e));
      let obs, auto =
        Obs.with_collector (fun () -> Sim.Backend.run ~seed:3 ~shots c)
      in
      let dense =
        Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:3 ~shots c
      in
      let counter = Obs.Collector.counter obs in
      check_hist (Printf.sprintf "m = %d: auto = forced dense" m) dense auto;
      check_int
        (Printf.sprintf "m = %d: one dense->sparse handoff per shot" m)
        shots
        (counter "backend.handoff.dense_to_sparse");
      check_int
        (Printf.sprintf "m = %d: every shot starts from the shared prefix" m)
        shots
        (counter "backend.prefix.hit"))
    [ 4; 8 ]

(* Conversions: densify/sparsify roundtrips preserve amplitudes and
   the classical register. *)
let test_conversions_roundtrip () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  for k = 0 to 19 do
    let c = random_dynamic_circuit rng in
    let p = Sim.Program.compile c in
    let sp = Sim.Sparse.run ~rng:(Random.State.make [| k |]) p in
    let round = Sim.Sparse.of_state (Sim.Sparse.to_state sp) in
    let ok = ref (Sim.Sparse.register sp = Sim.Sparse.register round) in
    let dim = 1 lsl Sim.Sparse.num_qubits sp in
    for i = 0 to dim - 1 do
      let a = Sim.Sparse.amplitude sp i and b = Sim.Sparse.amplitude round i in
      if
        abs_float (a.Complex.re -. b.Complex.re) > tolerance
        || abs_float (a.Complex.im -. b.Complex.im) > tolerance
      then ok := false
    done;
    check_bool (Printf.sprintf "roundtrip %d" k) true !ok
  done

(* ------------------------------------------------------------------ *)
(* Exact-branch evaluation: one enumerator on either engine, with the
   measurements that end a circuit read in one pass, must give the law
   folded from Exact.leaves, which forks on every measurement.        *)

let fork_law ?prune c =
  Sim.Dist.create ~width:(Circ.num_bits c)
    (List.map
       (fun (l : Sim.Exact.leaf) -> (l.register, l.probability))
       (Sim.Exact.leaves ?prune c))

let exact_on ?prune engine c =
  Sim.Exact.program_distribution ?prune ~engine (Sim.Program.compile c)

let test_exact_engines_match_fork_law () =
  let rng = Random.State.make [| 0xE7AC7 |] in
  for k = 0 to 29 do
    let c = random_dynamic_circuit rng in
    let measured =
      Sim.Measurement_plan.instrument Sim.Measurement_plan.measure_all c
    in
    List.iter
      (fun ((tag, c), prune) ->
        let law = fork_law ?prune c in
        let outcomes d = List.map fst (Sim.Dist.to_list d) in
        List.iter
          (fun (name, engine) ->
            let d = exact_on ?prune engine c in
            let msg =
              Printf.sprintf "circuit %d%s, prune %s: %s" k tag
                (Option.fold ~none:"default" ~some:string_of_float prune)
                name
            in
            check_bool (msg ^ " = fork-everything law") true
              (Sim.Dist.approx_equal ~eps:1e-12 law d);
            (* outcomes at or below the prune threshold are dropped on
               every path, so both laws list the same outcomes *)
            Alcotest.(check (list int)) (msg ^ " outcomes") (outcomes law)
              (outcomes d))
          [ ("dense", dense_engine); ("sparse", sparse_engine) ])
      (List.concat_map
         (fun case -> [ (case, None); (case, Some 0.1) ])
         [ ("", c); (" + measure-all", measured) ])
  done

(* Past the dense cap only the sparse engine can enumerate; the
   all-ones ladder is deterministic, so its law is a point mass. *)
let test_exact_wide_sparse () =
  let c =
    dyn2_ladder ~inputs:wide_inputs ~ones:(List.init wide_inputs Fun.id)
  in
  match Sim.Dist.to_list (exact_on sparse_engine c) with
  | [ (1, p) ] ->
      check_bool "bit 0 reads 1 with probability 1" true
        (abs_float (p -. 1.) <= 1e-12)
  | pairs ->
      Alcotest.failf "expected a point mass on 1, got %d outcomes"
        (List.length pairs)

(* Auto sends a narrow deterministic dyn2 ladder to the exact engine,
   and its all-sparse segment plan makes the enumeration sparse. *)
let test_exact_auto_sparse () =
  let c = dyn2_ladder ~inputs:6 ~ones:(List.init 6 Fun.id) in
  check_bool "at most 16 qubits" true (Circ.num_qubits c <= 16);
  check_bool "every segment planned sparse" true
    (List.for_all
       (fun (s : Sim.Backend.segment_engine) -> s.seg_engine = `Sparse)
       (Sim.Backend.segment_plan c));
  (match Sim.Backend.select ~shots:64 c with
  | `Exact -> ()
  | (`Dense | `Sparse | `Stabilizer | `Hybrid) as e ->
      Alcotest.failf "expected exact, Auto selected %s"
        (Sim.Backend.engine_name e));
  let obs, h =
    Obs.with_collector (fun () -> Sim.Backend.run ~seed:5 ~shots:64 c)
  in
  check_bool "enumerated on the sparse engine" true
    (List.exists
       (fun (s : Obs.Collector.span) ->
         s.name = "exact.enumerate"
         && List.assoc_opt "engine" s.attrs = Some "sparse")
       (Obs.Collector.spans obs));
  Alcotest.check hist_pairs "every shot reads the AND" [ (1, 64) ]
    (Sim.Runner.to_list h)

let () =
  Alcotest.run "sparse"
    [
      ( "differential",
        [
          Alcotest.test_case "220 random dynamic circuits" `Slow
            test_differential_random_circuits;
          Alcotest.test_case "shot streams across engines" `Slow
            test_shot_streams_deterministic_across_engines;
          Alcotest.test_case "conversions roundtrip" `Quick
            test_conversions_roundtrip;
        ] );
      ( "dyn2 ladder",
        [
          Alcotest.test_case "small-width ground truth" `Quick
            test_dyn2_ladder_small_width;
          Alcotest.test_case "dense cap exceeded" `Quick
            test_dense_cap_exceeded;
          Alcotest.test_case "wide basis-sparse acceptance" `Quick
            test_wide_basis_sparse_acceptance;
          Alcotest.test_case "wide backend auto" `Quick test_wide_backend_auto;
        ] );
      ( "backend plans",
        [
          Alcotest.test_case "dense/sparse x prefix cache x domains" `Quick
            test_backend_plans_identical;
          Alcotest.test_case "hybrid witness" `Quick test_hybrid_witness;
        ] );
      ( "exact engines",
        [
          Alcotest.test_case "dense/sparse = fork-everything law" `Quick
            test_exact_engines_match_fork_law;
          Alcotest.test_case "43 qubits on the sparse engine" `Quick
            test_exact_wide_sparse;
          Alcotest.test_case "auto enumerates sparse" `Quick
            test_exact_auto_sparse;
        ] );
    ]
