(* Differential validation of the sparse basis-amplitude engine
   (Sim.Sparse) against the dense engine: amplitude-for-amplitude
   agreement over hundreds of random dynamic circuits, identical
   seed-deterministic shot streams through Backend.run's plan executor
   (forced dense and sparse on random circuits, prefix cache on and
   off, one and two domains, the hybrid witness and the randomized
   ladder against forced dense, and the hybrid-shaped circuit against
   forced sparse), the
   over-the-dense-cap basis-sparse acceptance workload (a >= 28-qubit
   dyn2-substituted Toffoli ladder), exact-branch evaluation on either
   engine against the law of forking on every measurement, and the
   static analyzer behind Auto's choices: its amplitude bounds against
   dense replay and its per-segment Clifford witness. *)

open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let hist_pairs = Alcotest.(list (pair int int))

let check_hist msg a b =
  Alcotest.check hist_pairs msg (Sim.Runner.to_list a) (Sim.Runner.to_list b)

let dense_engine = (module Sim.Statevector.Dense_engine : Sim.Engine.S)
let sparse_engine = (module Sim.Sparse.Sparse_engine : Sim.Engine.S)

(* The random dynamic circuits (Clifford+T 1-qubit gates, CX/CZ,
   Toffolis, mid-circuit measures, resets, conditioned gates) of
   Testkit: this file's own stream draws up to 8 qubits and 32
   instructions, the wide stream up to 10 and 35. *)
let random_dynamic_circuit rng =
  Testkit.random_dynamic_circuit ~max_qubits:8 ~max_instrs:32 rng

let wide_random_circuit rng =
  Testkit.random_dynamic_circuit ~max_qubits:10 ~max_instrs:35 rng

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

(* [count] circuits drawn by [draw] from one stream, each replayed
   from every seed [seeds k] gives for circuit [k]. *)
let differential ~stream ~draw ~count ~seeds () =
  let rng = Random.State.make [| stream |] in
  for k = 0 to count - 1 do
    let c = draw rng in
    List.iter
      (fun seed ->
        check_bool
          (Printf.sprintf "circuit %d (%d qubits), seed %d" k
             (Circ.num_qubits c) seed)
          true (engines_agree ~seed c))
      (seeds k)
  done

let test_differential_random_circuits =
  differential ~stream:0x5AB5E ~draw:random_dynamic_circuit ~count:220
    ~seeds:(fun k -> [ 11; 12 + k; 4242 ])

let test_differential_wide_circuits =
  differential ~stream:0x5FA25E ~draw:wide_random_circuit ~count:150
    ~seeds:(fun _ -> [ 17; 4242 ])

(* The analyzer's per-segment bounds against dense replay: after every
   instruction [i] the nonzero-amplitude count stays within 2^bound of
   the segment holding instruction [i+1] (a segment's peak covers the
   pre-states of its instructions), on every seed; and each Clifford
   verdict comes with a witness the stabilizer engine accepts. *)
let test_analyzer_bounds_sound () =
  let rng = Random.State.make [| 0xA17A |] in
  for k = 1 to 200 do
    let c = wide_random_circuit rng in
    let summary = Lint.Resource.analyze c in
    let instrs = Array.of_list (Circ.instructions c) in
    let m = Array.length instrs in
    let segs = Array.of_list summary.Lint.Resource.segments in
    let seg_of = Array.make m 0 in
    Array.iteri
      (fun s (g : Lint.Resource.segment) ->
        for i = g.Lint.Resource.start to g.Lint.Resource.stop - 1 do
          seg_of.(i) <- s
        done)
      segs;
    let bound_after i =
      let s = if i + 1 < m then seg_of.(i + 1) else Array.length segs - 1 in
      segs.(s).Lint.Resource.log2_bound_peak
    in
    let nq = Circ.num_qubits c and nb = Circ.num_bits c in
    List.iter
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let random () = Random.State.float rng 1.0 in
        let st = Sim.State.create nq ~num_bits:nb in
        Array.iteri
          (fun i instr ->
            Sim.Program.exec ~random st
              (Sim.Program.compile_instructions ~fuse:false ~num_qubits:nq
                 ~num_bits:nb [ instr ]);
            let v = Sim.State.amplitudes st in
            let nz = ref 0 in
            for a = 0 to Linalg.Cvec.dim v - 1 do
              if Complex.norm2 (Linalg.Cvec.get v a) > 1e-18 then incr nz
            done;
            if !nz > 1 lsl bound_after i then
              Alcotest.failf
                "circuit %d, seed %d: %d nonzero amplitudes after instruction \
                 %d, bound 2^%d"
                k seed !nz i (bound_after i))
          instrs)
      [ 1; 7; 42 ];
    if summary.Lint.Resource.clifford then
      check_bool
        (Printf.sprintf "circuit %d: stabilizer accepts the witness" k)
        true
        (Sim.Stabilizer.supports summary.Lint.Resource.witness)
  done

(* Backend.run forced dense and forced sparse must produce
   byte-identical histograms for a fixed seed: shot i's register
   depends only on (seed, i), never on the state representation. *)
let test_shot_streams_deterministic_across_engines () =
  let rng = Random.State.make [| 0xBEEF |] in
  let run policy ~seed c = Sim.Backend.run ~policy ~seed ~shots:150 c in
  for k = 0 to 9 do
    let c = random_dynamic_circuit rng in
    let dense = run Sim.Backend.Statevector_dense ~seed:(100 + k) c in
    let sparse = run Sim.Backend.Sparse_statevector ~seed:(100 + k) c in
    check_hist (Printf.sprintf "circuit %d" k) dense sparse
  done

(* ------------------------------------------------------------------ *)
(* The basis-sparse acceptance workload: a Toffoli ladder computing
   the AND of its inputs, substituted with the paper's ancilla-
   unrolled dynamic-2 netlist.  Inputs are prepared with X gates, so
   every per-shot state stays within a handful of basis amplitudes
   regardless of width.                                               *)

let dyn2_ladder ~inputs ~ones =
  Testkit.dyn2_ladder ~inputs ~superposed:0 ~ones

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

(* The mixed-sparsity witness (Testkit.hybrid_witness, the circuit the
   bench runs at m = 12): Auto runs it hybrid, handing the state from
   dense to sparse once per shot after a shared dense prefix. *)
let test_hybrid_witness () =
  let shots = 64 in
  List.iter
    (fun m ->
      let c = Testkit.hybrid_witness ~m in
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
      check_bool
        (Printf.sprintf "m = %d: backend.select.hybrid >= 1" m)
        true
        (counter "backend.select.hybrid" >= 1);
      check_int
        (Printf.sprintf "m = %d: one dense->sparse handoff per shot" m)
        shots
        (counter "backend.handoff.dense_to_sparse");
      check_int
        (Printf.sprintf "m = %d: every shot starts from the shared prefix" m)
        shots
        (counter "backend.prefix.hit"))
    [ 4; 8; 12 ]

(* Testkit.hybrid_win, the shape hybrid is kept for (bench gate's
   third row times it): Auto plans it hybrid, its shots equal forced
   sparse's, and the state changes engine once each way per shot. *)
let test_hybrid_win () =
  let shots = 16 in
  let c = Testkit.hybrid_win ~n:10 ~layers:8 ~tail:10 in
  (match Sim.Backend.select ~shots c with
  | `Hybrid -> ()
  | (`Dense | `Sparse | `Stabilizer | `Exact) as e ->
      Alcotest.failf "expected hybrid, Auto selected %s"
        (Sim.Backend.engine_name e));
  let obs, auto =
    Obs.with_collector (fun () -> Sim.Backend.run ~seed:3 ~shots c)
  in
  check_hist "auto = forced sparse"
    (Sim.Backend.run ~policy:Sim.Backend.Sparse_statevector ~seed:3 ~shots c)
    auto;
  List.iter
    (fun h ->
      check_int ("backend.handoff." ^ h) shots
        (Obs.Collector.counter obs ("backend.handoff." ^ h)))
    [ "sparse_to_dense"; "dense_to_sparse" ]

(* The randomized AND-7 ladder (six superposed inputs, the seventh
   X-prepared): the analyzer bounds it far under the register width, so
   Auto plans it sparse, and its shots equal forced dense's. *)
let test_randomized_ladder () =
  let shots = 64 in
  let c = Testkit.dyn2_ladder ~inputs:7 ~superposed:6 ~ones:[ 6 ] in
  (match Sim.Backend.select ~shots c with
  | `Sparse -> ()
  | (`Dense | `Hybrid | `Stabilizer | `Exact) as e ->
      Alcotest.failf "expected sparse, Auto selected %s"
        (Sim.Backend.engine_name e));
  let obs, auto =
    Obs.with_collector (fun () -> Sim.Backend.run ~seed:3 ~shots c)
  in
  check_bool "backend.select.sparse >= 1" true
    (Obs.Collector.counter obs "backend.select.sparse" >= 1);
  check_hist "auto = forced dense"
    (Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:3 ~shots c)
    auto

(* Per-segment Clifford selection: the 17-qubit adaptive-parity circuit
   fails the whole-circuit stabilizer scan and is wider than a 16-qubit
   exact cut, so a whole-circuit rule runs it dense; its analyzer
   witness is Clifford, so Auto picks the tableau engine. *)
let test_adaptive_parity_stabilizer () =
  let c = Algorithms.Mct_bench.adaptive_parity 15 in
  check_bool "whole-circuit scan rejects it" false (Sim.Stabilizer.supports c);
  check_bool "wider than the exact engine's 16 qubits" true
    (Circ.num_qubits c > 16);
  let obs, selected =
    Obs.with_collector (fun () -> Sim.Backend.select ~shots:1024 c)
  in
  (match selected with
  | `Stabilizer -> ()
  | (`Dense | `Sparse | `Hybrid | `Exact) as e ->
      Alcotest.failf "expected stabilizer, Auto selected %s"
        (Sim.Backend.engine_name e));
  check_bool "backend.select.stabilizer >= 1" true
    (Obs.Collector.counter obs "backend.select.stabilizer" >= 1)

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
          Alcotest.test_case "150 circuits up to 10 qubits" `Slow
            test_differential_wide_circuits;
          Alcotest.test_case "analyzer bounds and witnesses" `Slow
            test_analyzer_bounds_sound;
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
          Alcotest.test_case "hybrid win shape" `Quick test_hybrid_win;
          Alcotest.test_case "randomized AND-7 ladder" `Slow
            test_randomized_ladder;
          Alcotest.test_case "adaptive parity on stabilizer" `Quick
            test_adaptive_parity_stabilizer;
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
