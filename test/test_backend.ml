(* Execution-backend layer: policy selection, the parallel shot
   engine's determinism guarantees, the shared-prefix cache, and
   cross-backend statistical agreement. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let hist_pairs = Alcotest.(list (pair int int))

let check_hist msg a b =
  Alcotest.check hist_pairs msg (Sim.Runner.to_list a) (Sim.Runner.to_list b)

let hist_tv a b =
  Sim.Dist.tv_distance (Sim.Runner.to_dist a) (Sim.Runner.to_dist b)

let dj_and () = Algorithms.Dj.circuit (Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND"))

let dyn2_and () =
  (Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 (dj_and ()))
    .Dqc.Transform.circuit

(* ------------------------------------------------------------------ *)
(* Measurement plans                                                  *)

let test_plan_to_pairs () =
  Alcotest.(check (list (pair int int)))
    "measure_all" [ (0, 0); (1, 1); (2, 2) ]
    (Sim.Measurement_plan.to_pairs ~num_qubits:3 Sim.Measurement_plan.measure_all);
  let p =
    Sim.Measurement_plan.(
      combine (measure ~qubit:2 ~bit:0) (measure ~qubit:0 ~bit:1))
  in
  Alcotest.(check (list (pair int int)))
    "explicit pairs" [ (2, 0); (0, 1) ]
    (Sim.Measurement_plan.to_pairs ~num_qubits:3 p)

let test_plan_combine_absorbs () =
  let p =
    Sim.Measurement_plan.(combine measure_all (measure ~qubit:1 ~bit:5))
  in
  Alcotest.(check (list (pair int int)))
    "measure_all absorbs" [ (0, 0); (1, 1) ]
    (Sim.Measurement_plan.to_pairs ~num_qubits:2 p)

let test_plan_instrument () =
  let c = dj_and () in
  let instrumented =
    Sim.Measurement_plan.instrument Sim.Measurement_plan.measure_all c
  in
  let measures =
    List.length
      (List.filter
         (function Circuit.Instruction.Measure _ -> true | _ -> false)
         (Circuit.Circ.instructions instrumented))
  in
  check_int "one terminal measure per qubit"
    (Circuit.Circ.num_qubits c) measures

(* ------------------------------------------------------------------ *)
(* Parallel shot engine                                               *)

let test_parallel_validation () =
  Alcotest.check_raises "negative shots"
    (Invalid_argument "Parallel.run: negative shots") (fun () ->
      ignore
        (Sim.Parallel.run ~seed:1 ~width:1 ~shots:(-1) (fun ~rng:_ ~index -> index)));
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Parallel.run: domains < 1") (fun () ->
      ignore
        (Sim.Parallel.run ~domains:0 ~seed:1 ~width:1 ~shots:4
           (fun ~rng:_ ~index -> index)))

let test_parallel_deterministic_sharding () =
  (* outcome of shot i depends only on (seed, i): any domain count
     yields the same histogram *)
  let f ~rng ~index:_ = Random.State.int rng 8 in
  let reference = Sim.Parallel.run ~domains:1 ~seed:42 ~width:3 ~shots:200 f in
  List.iter
    (fun domains ->
      check_hist
        (Printf.sprintf "%d domains" domains)
        reference
        (Sim.Parallel.run ~domains ~seed:42 ~width:3 ~shots:200 f))
    [ 2; 3; 7; 200 ];
  check_int "all shots tallied" 200 (Sim.Runner.shots reference)

(* ------------------------------------------------------------------ *)
(* Policy selection                                                   *)

let test_policy_strings () =
  List.iter
    (fun p ->
      match Sim.Backend.policy_of_string (Sim.Backend.policy_to_string p) with
      | Some q -> check_bool "roundtrip" true (p = q)
      | None -> Alcotest.fail "policy string did not parse back")
    [
      Sim.Backend.Auto;
      Statevector_dense;
      Sparse_statevector;
      Stabilizer;
      Exact_branch;
    ];
  check_bool "unknown rejected" true
    (Sim.Backend.policy_of_string "qpu" = None)

let test_select_auto () =
  let bv = Algorithms.Bv.circuit "1011" in
  let cheapest =
    List.fold_left
      (fun best (e, cost) ->
        match (best, cost) with
        | None, Ok ms -> Some (e, ms)
        | Some (_, b), Ok ms when ms < b -> Some (e, ms)
        | (Some _ | None), (Ok _ | Error _) -> best)
      None (Sim.Backend.predict ~shots:1024 bv).costs
  in
  check_bool "Clifford -> the cheapest predicted engine" true
    (Option.map fst cheapest = Some (Sim.Backend.select ~shots:1024 bv));
  check_bool "non-Clifford, few branch points -> exact" true
    (Sim.Backend.select ~shots:1024 (dj_and ()) = `Exact)

(* Each Auto decision records one backend.select flight event whose
   winner is what select returns and the least of its predicted costs. *)
let test_select_event_argmin () =
  List.iter
    (fun (name, c, shots) ->
      let recorder, selected =
        Obs.Flight.with_recorder (fun () -> Sim.Backend.select ~shots c)
      in
      match
        List.filter
          (fun (e : Obs.Flight.event) -> e.kind = "backend.select")
          (Obs.Flight.events recorder)
      with
      | [ e ] ->
          let winner = List.assoc_opt "winner" e.data in
          check_bool (name ^ ": winner = select") true
            (winner = Some (Obs.Json.String (Sim.Backend.engine_name selected)));
          let predicted =
            match List.assoc_opt "predicted_ms" e.data with
            | Some (Obs.Json.Obj costs) ->
                List.map
                  (fun (engine, ms) ->
                    match ms with
                    | Obs.Json.Float ms -> (engine, ms)
                    | _ -> Alcotest.failf "%s: %s cost is not a float" name engine)
                  costs
            | _ -> Alcotest.failf "%s: no predicted_ms" name
          in
          let argmin =
            List.fold_left
              (fun (b, bms) (e, ms) -> if ms < bms then (e, ms) else (b, bms))
              (List.hd predicted) predicted
          in
          check_bool (name ^ ": winner = argmin") true
            (winner = Some (Obs.Json.String (fst argmin)))
      | evs ->
          Alcotest.failf "%s: expected one backend.select event, got %d" name
            (List.length evs))
    [
      ("dyn2 DJ(AND), 1024 shots", dyn2_and (), 1024);
      ("dyn2 DJ(AND), 1 shot", dyn2_and (), 1);
      ("hybrid witness m = 8", Testkit.hybrid_witness ~m:8, 64);
      ("hybrid win", Testkit.hybrid_win ~n:10 ~layers:8 ~tail:10, 16);
      ("Clifford BV_1011", Algorithms.Bv.circuit "1011", 1024);
      ( "Clifford witness XORA_15",
        Algorithms.Mct_bench.adaptive_parity 15,
        2048 );
    ]

let test_select_forced_stabilizer_raises () =
  match Sim.Backend.select ~policy:Sim.Backend.Stabilizer ~shots:16 (dj_and ()) with
  | exception Sim.Stabilizer.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Stabilizer.Unsupported"

(* H on every qubit, then every qubit measured: 2^n equally likely
   outcomes.  Enumerating them on the tableau copies and collapses it
   once per outcome, so Auto samples instead, and a 20-qubit run of
   1024 shots returns at once. *)
let test_select_many_terminal_outcomes () =
  let uniform n =
    Circuit.Circ.create
      ~roles:(Array.make n Circuit.Circ.Data)
      ~num_bits:n
      (List.init n (fun q ->
           Circuit.Instruction.Unitary (Circuit.Instruction.app Circuit.Gate.H q))
      @ List.init n (fun q -> Circuit.Instruction.Measure { qubit = q; bit = q }))
  in
  List.iter
    (fun n ->
      let c = uniform n in
      let enumerated_on_tableau =
        Sim.Backend.select ~shots:1024 c = `Exact
        && (Sim.Backend.predict ~shots:1024 c).exact_engine = Some `Stabilizer
      in
      check_bool
        (Printf.sprintf "%d qubits: not enumerated on the tableau" n)
        false enumerated_on_tableau)
    [ 16; 20; 30 ];
  let h = Sim.Backend.run ~domains:1 ~shots:1024 (uniform 20) in
  check_int "20 qubits: 1024 shots" 1024
    (List.fold_left (fun acc (_, k) -> acc + k) 0 (Sim.Runner.to_list h))

(* ------------------------------------------------------------------ *)
(* Determinism of Backend.run                                         *)

let test_run_deterministic_across_domains () =
  let c = dyn2_and () in
  let run ?prefix_cache domains =
    Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:7 ~domains
      ?prefix_cache ~shots:300 c
  in
  let reference = run 1 in
  check_hist "2 domains" reference (run 2);
  check_hist "5 domains" reference (run 5);
  check_hist "cache off" reference (run ~prefix_cache:false 1);
  check_hist "cache off, 3 domains" reference (run ~prefix_cache:false 3)

let test_run_deterministic_auto () =
  let c = dj_and () in
  let plan = Sim.Measurement_plan.measure_all in
  let reference = Sim.Backend.run ~seed:11 ~domains:1 ~plan ~shots:256 c in
  check_hist "auto, 4 domains" reference
    (Sim.Backend.run ~seed:11 ~domains:4 ~plan ~shots:256 c)

let test_run_deterministic_stabilizer () =
  let c = Algorithms.Bv.circuit "1101" in
  let plan = Sim.Measurement_plan.measure_all in
  let run domains =
    Sim.Backend.run ~policy:Sim.Backend.Stabilizer ~seed:3 ~domains ~plan
      ~shots:128 c
  in
  check_hist "stabilizer sharded" (run 1) (run 3)

(* ------------------------------------------------------------------ *)
(* Cross-backend agreement (TV <= 0.05 at 4096 shots)                 *)

let shots = 4096
let tv_budget = 0.05

let agree name c plan policies =
  let hists =
    List.map
      (fun policy -> Sim.Backend.run ~policy ~seed:23 ~plan ~shots c)
      policies
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            check_bool (Printf.sprintf "%s: %d vs %d" name i j) true
              (hist_tv a b <= tv_budget))
        hists)
    hists

let test_agreement_bv () =
  agree "BV" (Algorithms.Bv.circuit "1011") Sim.Measurement_plan.measure_all
    [ Sim.Backend.Statevector_dense; Stabilizer; Exact_branch ]

let test_agreement_dj () =
  (* Toffoli oracle: not Clifford, so dense vs exact only *)
  agree "DJ(AND)" (dj_and ()) Sim.Measurement_plan.measure_all
    [ Sim.Backend.Statevector_dense; Exact_branch ]

let test_agreement_teleport () =
  let c = Testkit.teleport Circuit.Gate.H in
  agree "teleport(H)" c
    (Sim.Measurement_plan.measure ~qubit:2 ~bit:2)
    [ Sim.Backend.Statevector_dense; Exact_branch ]

let test_agreement_exact_reference () =
  (* sampled histograms track the exact branching distribution *)
  let c = dyn2_and () in
  let exact = Sim.Exact.register_distribution c in
  let h =
    Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:31 ~shots c
  in
  check_bool "dense vs exact law" true
    (Sim.Dist.tv_distance (Sim.Runner.to_dist h) exact <= tv_budget)

(* ------------------------------------------------------------------ *)
(* Shared-prefix cache                                                *)

let test_prefix_cache_equivalence () =
  (* byte-identical to the uncached dense engine, which reuses the same
     per-shot RNG states: the prefix consumes no randomness *)
  let check_circuit name c =
    let run prefix_cache =
      Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:13
        ~domains:1 ~prefix_cache ~shots:400 c
    in
    check_hist name (run true) (run false)
  in
  check_circuit "dyn2 DJ(AND)" (dyn2_and ());
  check_circuit "teleport" (Testkit.teleport Circuit.Gate.H);
  check_circuit "terminal-only measures"
    (Sim.Measurement_plan.instrument Sim.Measurement_plan.measure_all
       (dj_and ()))

(* ------------------------------------------------------------------ *)
(* Noise engine on the parallel/prefix machinery                      *)

let test_noise_deterministic_across_domains () =
  let c = dyn2_and () in
  let run domains =
    Sim.Noise.run_shots ~seed:17 ~domains ~model:Sim.Noise.default ~shots:300 c
  in
  check_hist "noisy, 1 vs 4 domains" (run 1) (run 4)

let test_noise_ideal_matches_exact () =
  let c = dyn2_and () in
  let h =
    Sim.Noise.run_shots ~seed:19 ~model:Sim.Noise.ideal ~shots:4096 c
  in
  check_bool "ideal noise = exact law" true
    (Sim.Dist.tv_distance (Sim.Runner.to_dist h)
       (Sim.Exact.register_distribution c)
    <= tv_budget)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "backend"
    [
      ( "measurement_plan",
        [
          Alcotest.test_case "to_pairs" `Quick test_plan_to_pairs;
          Alcotest.test_case "combine absorbs" `Quick test_plan_combine_absorbs;
          Alcotest.test_case "instrument" `Quick test_plan_instrument;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "validation" `Quick test_parallel_validation;
          Alcotest.test_case "deterministic sharding" `Quick
            test_parallel_deterministic_sharding;
        ] );
      ( "policy",
        [
          Alcotest.test_case "strings" `Quick test_policy_strings;
          Alcotest.test_case "auto selection" `Quick test_select_auto;
          Alcotest.test_case "select event is the argmin" `Quick
            test_select_event_argmin;
          Alcotest.test_case "forced stabilizer raises" `Quick
            test_select_forced_stabilizer_raises;
          Alcotest.test_case "many terminal outcomes" `Quick
            test_select_many_terminal_outcomes;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "dense across domains" `Quick
            test_run_deterministic_across_domains;
          Alcotest.test_case "auto across domains" `Quick
            test_run_deterministic_auto;
          Alcotest.test_case "stabilizer across domains" `Quick
            test_run_deterministic_stabilizer;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "BV dense/stabilizer/exact" `Slow
            test_agreement_bv;
          Alcotest.test_case "DJ(AND) dense/exact" `Slow test_agreement_dj;
          Alcotest.test_case "teleport dense/exact" `Slow
            test_agreement_teleport;
          Alcotest.test_case "dense vs exact law" `Quick
            test_agreement_exact_reference;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "cache equivalence" `Quick
            test_prefix_cache_equivalence;
        ] );
      ( "noise",
        [
          Alcotest.test_case "deterministic across domains" `Quick
            test_noise_deterministic_across_domains;
          Alcotest.test_case "ideal matches exact" `Slow
            test_noise_ideal_matches_exact;
        ] );
    ]
