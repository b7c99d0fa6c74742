(* Differential validation of the sparse basis-amplitude engine
   (Sim.Sparse) against the dense engine: amplitude-for-amplitude
   agreement over hundreds of random dynamic circuits, identical
   seed-deterministic shot streams through Backend.run's walk (forced
   dense, sparse and tableau runs on random circuits against the
   per-shot replay on one to three domains, the hybrid witness and the
   randomized ladder against forced dense, and the hybrid-shaped
   circuit against forced sparse), the
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

let dense_engine = (module Sim.Statevector.Dense_engine : Sim.Engine.Core)
let sparse_engine = (module Sim.Sparse.Sparse_engine : Sim.Engine.Core)

(* Testkit's random dynamic circuits: this file's own stream draws up
   to 8 qubits and 32 instructions, the wide stream up to 10 and 35. *)
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

(* The analyzer's bounds against dense replay: after every instruction
   [i] the nonzero-amplitude count stays within 2^log2_bounds.(i+1), on
   every seed, and a segment's peak is the largest bound it spans; and
   each Clifford verdict comes with a witness the stabilizer engine
   accepts. *)
let test_analyzer_bounds_sound () =
  let rng = Random.State.make [| 0xA17A |] in
  for k = 1 to 200 do
    let c = wide_random_circuit rng in
    let summary = Sim.Backend.resource_summary c in
    let instrs = Array.of_list (Circ.instructions c) in
    let bounds = summary.Lint.Resource.log2_bounds in
    List.iter
      (fun (g : Lint.Resource.segment) ->
        let peak = ref 0 in
        for i = g.Lint.Resource.start to g.Lint.Resource.stop do
          peak := max !peak bounds.(i)
        done;
        check_int
          (Printf.sprintf "circuit %d: segment peak = its bounds' max" k)
          !peak g.Lint.Resource.log2_bound_peak)
      summary.Lint.Resource.segments;
    let bound_after i = bounds.(i + 1) in
    let nq = Circ.num_qubits c and nb = Circ.num_bits c in
    List.iter
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let random () = Random.State.float rng 1.0 in
        let st = Sim.State.create nq ~num_bits:nb in
        Array.iteri
          (fun i instr ->
            Sim.Program.exec ~random st
              (Sim.Program.compile_instructions ~num_qubits:nq ~num_bits:nb
                 [ instr ]);
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
        (Sim.Stabilizer.supports
           (Sim.Program.compile summary.Lint.Resource.witness))
  done

(* Every analyzer report pinned byte for byte.  analyze_golden.txt
   holds one line per case: the case name, then the MD5s of the
   dqc.analyze/1 document and of the text report.  The cases are the
   70 paper jobs and the 220 differential circuits of stream 0x5AB5E,
   as drawn. *)
let analyze_golden_lines () =
  let rng = Random.State.make [| 0x5AB5E |] in
  let differential =
    List.init 220 (fun k ->
        (Printf.sprintf "circuit %d" k, random_dynamic_circuit rng))
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  List.map
    (fun (name, c) ->
      let s = Sim.Backend.resource_summary c in
      Printf.sprintf "%s %s %s" name
        (md5 (Obs.Json.to_string (Lint.Resource.to_json ~name c s)))
        (md5 (Lint.Resource.to_string c s)))
    (Testkit.paper_jobs () @ differential)

(* [file]'s lines against [lines], naming the first case that differs *)
let check_golden file lines =
  let golden =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let rec compare = function
    | [], [] -> ()
    | e :: es, a :: rest ->
        if e = a then compare (es, rest)
        else
          Alcotest.failf "first differing case:\n  golden %s\n  now    %s" e a
    | e :: _, [] -> Alcotest.failf "case no longer produced: %s" e
    | [], a :: _ -> Alcotest.failf "case not in the golden file: %s" a
  in
  compare (golden, lines)

let test_analyze_golden () =
  check_golden "analyze_golden.txt" (analyze_golden_lines ())

(* Fork soundness: [forks.(i)] bounds the branches the dense
   enumerator holds before instruction [i].  [held.(i)] counts them —
   the leaves of the length-[i] prefix, forking as Exact does on every
   measure and reset outcome above the 1e-12 prune. *)
let branches_held c =
  let module E = Sim.Statevector.Dense_engine in
  let nq = Circ.num_qubits c and nb = Circ.num_bits c in
  let instrs = Array.of_list (Circ.instructions c) in
  let m = Array.length instrs in
  let held = Array.make (m + 1) 0 in
  let rec go st prob i =
    held.(i) <- held.(i) + 1;
    if i < m then
      let fork q ~on_branch =
        let p1 = E.prob_one st q in
        List.iter
          (fun (outcome, p) ->
            if p *. prob > 1e-12 then begin
              let st = E.copy st in
              ignore (E.project st q outcome);
              on_branch st outcome;
              go st (prob *. p) (i + 1)
            end)
          [ (false, 1. -. p1); (true, p1) ]
      in
      match instrs.(i) with
      | Instruction.Measure { qubit; bit } ->
          fork qubit ~on_branch:(fun st outcome -> E.set_bit st bit outcome)
      | Instruction.Reset q ->
          fork q ~on_branch:(fun st outcome -> if outcome then E.flip st q)
      | Instruction.Unitary _ | Instruction.Conditioned _
      | Instruction.Barrier _ ->
          E.exec ~random:Sim.Program.no_random st
            (Sim.Program.compile_instructions ~num_qubits:nq ~num_bits:nb
               [ instrs.(i) ]);
          go st prob (i + 1)
  in
  go (E.create nq ~num_bits:nb) 1.0 0;
  held

(* The first instruction index up to the trailing measurement run whose
   held branches exceed [2^forks.(i)], if any. *)
let fork_undercount forks c =
  let instrs = Array.of_list (Circ.instructions c) in
  let rec trailing i =
    match[@warning "-4"] if i = 0 then None else Some instrs.(i - 1) with
    | Some (Instruction.Measure _ | Instruction.Barrier _) -> trailing (i - 1)
    | _ -> i
  in
  let stop = trailing (Array.length instrs) and held = branches_held c in
  let rec check i =
    if i > stop then None
    else if held.(i) > 1 lsl forks.(i) then Some (i, held.(i))
    else check (i + 1)
  in
  check 0

(* On the "differential" stream: the analyzer's forks never under-count,
   and the check is not vacuous — fed forks with the first nonzero
   entry decremented, it fails on some circuit. *)
let test_forks_sound () =
  let rng = Random.State.make [| 0x5AB5E |] in
  let mutant_caught = ref false in
  for k = 0 to 219 do
    let c = random_dynamic_circuit rng in
    let forks = (Sim.Backend.resource_summary c).Lint.Resource.forks in
    (match fork_undercount forks c with
    | Some (i, held) ->
        Alcotest.failf "circuit %d: %d branches before instruction %d, forks %d"
          k held i forks.(i)
    | None -> ());
    match Array.find_index (fun f -> f > 0) forks with
    | Some j ->
        let mutant = Array.copy forks in
        mutant.(j) <- mutant.(j) - 1;
        if fork_undercount mutant c <> None then mutant_caught := true
    | None -> ()
  done;
  check_bool "a decremented fork count is caught" true !mutant_caught

(* A paper job's circuit with its appended measurements *)
let paper_job scheme c =
  let c, measures = Testkit.paper_job scheme c in
  Sim.Measurement_plan.instrument (Sim.Measurement_plan.of_pairs measures) c

let dj_and_n n = Algorithms.Dj.circuit (Algorithms.Mct_bench.and_n n)
let dj_maj_5 () = Algorithms.Dj.circuit (Algorithms.Mct_bench.majority_n 5)

(* Forks per branch: a collapse of a qubit the analyzer ties to the
   register forks no branch of the enumeration, each of which fixes
   its register.  Hand-built rows give [forks] before every
   instruction; paper jobs and the m8 witness their fork depth. *)
let test_forks_per_branch () =
  let hand instrs =
    Circ.create ~roles:(Array.make 3 Circ.Data) ~num_bits:2 instrs
  in
  let u g q = Instruction.Unitary (Instruction.app g q) in
  let cx c t =
    Instruction.Unitary (Instruction.app ~controls:[ c ] Gate.X t)
  in
  let m q b = Instruction.Measure { qubit = q; bit = b } in
  let if_b0 g q =
    Instruction.Conditioned
      ({ Instruction.bits = [ (0, true) ] }, Instruction.app g q)
  in
  let forks c = (Sim.Backend.resource_summary c).Lint.Resource.forks in
  List.iter
    (fun (name, c, expected) ->
      Alcotest.(check (list int)) name expected (Array.to_list (forks c)))
    [
      ( "second measured qubit copies the measured bit",
        hand [ u Gate.H 0; m 0 0; if_b0 Gate.X 1; m 1 1; u Gate.H 2 ],
        [ 0; 0; 1; 1; 1; 1 ] );
      ( "second measured qubit copies the measured qubit",
        hand [ u Gate.H 0; m 0 0; cx 0 1; m 1 1; u Gate.H 2 ],
        [ 0; 0; 1; 1; 1; 1 ] );
      ( "a measured qubit reset",
        hand [ u Gate.H 0; m 0 0; Instruction.Reset 0; u Gate.H 1 ],
        [ 0; 0; 1; 1; 1 ] );
      ( "a measured qubit superposed again",
        hand [ u Gate.H 0; m 0 0; u Gate.H 0; m 0 1; u Gate.H 1 ],
        [ 0; 0; 1; 1; 2; 2 ] );
    ];
  let dyn1 = Dqc.Toffoli_scheme.Dynamic_1
  and dyn2 = Dqc.Toffoli_scheme.Dynamic_2 in
  List.iter
    (fun (name, c, expected) ->
      let f = forks c in
      check_int name expected f.(Array.length f - 1))
    [
      ("BV_1011 dyn2", paper_job dyn2 (Algorithms.Bv.circuit "1011"), 2);
      ("DJ(AND) dyn2", paper_job dyn2 (Testkit.dj_and ()), 2);
      ("DJ(AND_4) dyn2", paper_job dyn2 (dj_and_n 4), 6);
      ("DJ(AND_5) dyn1", paper_job dyn1 (dj_and_n 5), 7);
      ("DJ(AND_5) dyn2", paper_job dyn2 (dj_and_n 5), 8);
      ("DJ(MAJ_5) dyn1", paper_job dyn1 (dj_maj_5 ()), 24);
      ("DJ(MAJ_5) dyn2", paper_job dyn2 (dj_maj_5 ()), 90);
      ("mixed-sparsity m8", Testkit.hybrid_witness ~m:8, 9);
    ]

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

let exact_on ?prune engine c =
  Sim.Exact.program_distribution ?prune ~engine (Sim.Program.compile c)

(* perfbench's histogram check: an n-shot histogram of a law with k
   outcomes lies within sqrt((k ln 2 + ln 1e9) / 2n) of it in total
   variation with probability at least 1 - 1e-9, and puts no shot on
   an outcome the law rules out. *)
let within_tv_bound law h =
  let shots = float_of_int (Sim.Runner.shots h) in
  let k = float_of_int (List.length (Sim.Dist.support law)) in
  List.for_all (fun (o, _) -> Sim.Dist.prob law o > 1e-12) (Sim.Runner.to_list h)
  && Sim.Dist.tv_distance (Sim.Runner.to_dist h) law
     <= sqrt (((k *. log 2.) +. log 1e9) /. (2. *. shots))

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

(* Backend integration over the cap: dense cannot even allocate, so
   Auto must stay on the sparse engine — it enumerates the one fork
   there, which the cost model prefers to 64 sampled shots — the run
   must be deterministic, and forced sparse must read the same
   outcome. *)
let test_wide_backend_auto () =
  let c = dyn2_ladder ~inputs:wide_inputs ~ones:(List.init wide_inputs Fun.id) in
  (match Sim.Backend.select ~shots:64 c with
  | `Exact -> ()
  | (`Dense | `Stabilizer | `Sparse | `Hybrid) as e ->
      Alcotest.failf "expected exact over the dense cap, Auto selected %s"
        (Sim.Backend.engine_name e));
  let auto = Sim.Backend.run ~seed:5 ~shots:64 c in
  check_bool "auto within the TV bound of the exact law" true
    (within_tv_bound (exact_on sparse_engine c) auto);
  let forced =
    Sim.Backend.run ~policy:Sim.Backend.Sparse_statevector ~seed:5 ~shots:64 c
  in
  List.iter
    (fun (name, h) ->
      Alcotest.check hist_pairs (name ^ ": deterministic outcome") [ (1, 64) ]
        (Sim.Runner.to_list h))
    [ ("auto", auto); ("forced sparse", forced) ]

(* ------------------------------------------------------------------ *)
(* Backend.run's walk against the per-shot replay it replaced
   (Testkit.replay_histogram), byte for byte.  Each row is a circuit,
   the policy it runs under, the engine and program a replayed shot
   runs, and the seeds, shot counts and domain counts to try; one
   function checks them all.                                          *)

type walk_row = {
  label : string;
  circuit : Circ.t;
  policy : Sim.Backend.policy;
  engine : (module Sim.Engine.Core);  (** the engine a replayed shot runs on *)
  program : Sim.Program.t;  (** the program it replays *)
  seeds : int list;
  shots : int list;
  domains : int list;
}

let check_walk row =
  List.iter
    (fun seed ->
      List.iter
        (fun shots ->
          let reference =
            Testkit.replay_histogram row.engine ~seed ~shots row.program
          in
          List.iter
            (fun domains ->
              check_hist
                (Printf.sprintf "%s, seed %d, %d shots, %d domain(s)" row.label
                   seed shots domains)
                reference
                (Sim.Backend.run ~policy:row.policy ~seed ~domains ~shots
                   row.circuit))
            row.domains)
        row.shots)
    row.seeds

let tableau_engine =
  (module Sim.Stabilizer.Tableau_engine : Sim.Engine.Core)

(* The tableau runs the analyzer's witness, when it is Clifford and
   every kernel maps onto the tableau. *)
let tableau_program c =
  let s = Sim.Backend.resource_summary c in
  let p = Sim.Program.compile s.Lint.Resource.witness in
  if s.Lint.Resource.clifford && Sim.Stabilizer.supports p then Some p
  else None

(* A forced engine's row, replayed on that engine, or with [on] on
   that one; the tableau's only where it runs the circuit. *)
let forced ?on ~label ~seeds ~shots ~domains c policies =
  List.filter_map
    (fun policy ->
      let row engine program =
        let engine = Option.value on ~default:engine in
        Some
          {
            label =
              Printf.sprintf "%s, %s" label
                (Sim.Backend.policy_to_string policy);
            circuit = c;
            policy;
            engine;
            program;
            seeds;
            shots;
            domains;
          }
      in
      match policy with
      | Sim.Backend.Statevector_dense ->
          row dense_engine (Sim.Program.compile c)
      | Sim.Backend.Sparse_statevector ->
          row sparse_engine (Sim.Program.compile c)
      | Sim.Backend.Stabilizer ->
          Option.bind (tableau_program c) (row tableau_engine)
      | Sim.Backend.Auto | Sim.Backend.Exact_branch -> None)
    policies

let dense_sparse_tableau =
  Sim.Backend.[ Statevector_dense; Sparse_statevector; Stabilizer ]

(* test_backend's "prefix cache equivalence" checks the unitary prefix
   the walk shares against the replay on dyn2 DJ(AND), teleport and a
   terminal-only DJ(AND). *)
let walk_rows () =
  let dyn2_and = Testkit.dyn2_and () in
  let differential =
    let rng = Random.State.make [| 0x5AB5E |] in
    List.concat
      (List.init 220 (fun k ->
           forced
             ~label:(Printf.sprintf "differential circuit %d" k)
             ~seeds:[ 11; 12 + k ] ~shots:[ 48 ] ~domains:[ 1; 2; 3 ]
             (random_dynamic_circuit rng) dense_sparse_tableau))
  in
  differential
  @ forced ~label:"dyn2 DJ(AND) sharded" ~seeds:[ 7 ] ~shots:[ 300 ]
      ~domains:[ 1; 3 ] dyn2_and
      [ Sim.Backend.Statevector_dense ]
  @ forced ~label:"teleport, few shots" ~seeds:[ 5 ] ~shots:[ 0; 1; 2 ]
      ~domains:[ 1; 2; 3 ] (Testkit.teleport Gate.H) dense_sparse_tableau

let test_walk_equals_replay () = List.iter check_walk (walk_rows ())

(* Forced dense and forced sparse on one and two domains, each sharing
   the unitary prefix, against the dense per-shot replay, which runs
   the prefix again for every shot: forced sparse replays the dense
   shot stream too. *)
let test_backend_plans_identical () =
  let rng = Random.State.make [| 0x9A7 |] in
  List.iter check_walk
    (List.concat
       (List.init 30 (fun k ->
            forced ~on:dense_engine
              ~label:(Printf.sprintf "plans circuit %d" k)
              ~seeds:[ 200 + k ] ~shots:[ 100 ] ~domains:[ 1; 2 ]
              (random_dynamic_circuit rng)
              Sim.Backend.[ Statevector_dense; Sparse_statevector ])))

(* The mixed-sparsity witness and the hybrid-shaped circuit under their
   Auto plans, the sparse walk and the hybrid one: every branch of a
   hybrid run hands its state to the next step's engine once. *)
let test_auto_walk_equals_replay () =
  List.iter
    (fun (label, c, want, engine) ->
      let got = Sim.Backend.select ~shots:16 c in
      if got <> want then
        Alcotest.failf "%s: expected %s, Auto selected %s" label
          (Sim.Backend.engine_name want)
          (Sim.Backend.engine_name got);
      check_walk
        {
          label;
          circuit = c;
          policy = Sim.Backend.Auto;
          engine;
          program = Sim.Program.compile c;
          seeds = [ 3; 4 ];
          shots = [ 16 ];
          domains = [ 1; 2; 3 ];
        })
    [
      ( "hybrid witness m = 8",
        Testkit.hybrid_witness ~m:8,
        `Sparse,
        dense_engine );
      ( "hybrid win",
        Testkit.hybrid_win ~n:10 ~layers:8 ~tail:10,
        `Hybrid,
        sparse_engine );
    ]

(* The mixed-sparsity witness (Testkit.hybrid_witness, the circuit the
   bench runs at m = 12), whichever engine Auto predicts cheapest: a
   sampled run shares forced dense's shot stream, an exact one stays
   within the TV bound of the exact law. *)
let test_hybrid_witness () =
  let shots = 64 in
  List.iter
    (fun m ->
      let c = Testkit.hybrid_witness ~m in
      let auto = Sim.Backend.run ~seed:3 ~shots c in
      match Sim.Backend.select ~shots c with
      | (`Dense | `Sparse | `Hybrid) as e ->
          check_hist
            (Printf.sprintf "m = %d: auto (%s) = forced dense" m
               (Sim.Backend.engine_name e))
            (Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~seed:3
               ~shots c)
            auto
      | `Exact ->
          check_bool
            (Printf.sprintf "m = %d: auto (exact) within the TV bound" m)
            true
            (within_tv_bound (exact_on sparse_engine c) auto)
      | `Stabilizer -> Alcotest.failf "m = %d: a non-Clifford circuit on the tableau" m)
    [ 4; 8; 12 ]

(* Testkit.hybrid_win, the shape hybrid is kept for (bench gate's
   third row times it): Auto plans it hybrid, its shots equal forced
   sparse's, every shot crosses an engine change once each way, and
   every shot shares the unitary prefix. *)
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
    [ "sparse_to_dense"; "dense_to_sparse" ];
  check_int "every shot shares the unitary prefix" shots
    (Obs.Collector.counter obs "backend.prefix.hit")

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
   carries a conditioned T, so its own program is outside the tableau's
   gate set, and it is wider than a 16-qubit dense enumeration; its
   analyzer witness is Clifford, so the tableau prices it, and one
   enumeration on the tableau (no fork, one trailing measurement) beats
   2^17-amplitude states and 1024 sampled shots. *)
let test_adaptive_parity_stabilizer () =
  let c = Algorithms.Mct_bench.adaptive_parity 15 in
  check_bool "its own program is outside the gate set" false
    (Sim.Stabilizer.supports (Sim.Program.compile c));
  check_bool "wider than the dense enumerator's 16 qubits" true
    (Circ.num_qubits c > 16);
  let obs, selected =
    Obs.with_collector (fun () -> Sim.Backend.select ~shots:1024 c)
  in
  (match selected with
  | `Exact -> ()
  | (`Dense | `Sparse | `Hybrid | `Stabilizer) as e ->
      Alcotest.failf "expected exact, Auto selected %s"
        (Sim.Backend.engine_name e));
  check_bool "backend.select.exact >= 1" true
    (Obs.Collector.counter obs "backend.select.exact" >= 1);
  check_bool "exact enumerates on the tableau" true
    ((Sim.Backend.predict ~shots:1024 c).exact_engine = Some `Stabilizer);
  check_bool "auto within the TV bound of the exact law" true
    (within_tv_bound (exact_on dense_engine c)
       (Sim.Backend.run ~seed:3 ~shots:1024 c))

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
   folded from Testkit.leaves, which forks on every measurement.      *)

let fork_law ?prune c =
  Sim.Dist.create ~width:(Circ.num_bits c) (Testkit.leaves ?prune c)

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

(* Every exact law pinned to the last bit.  exact_golden.txt holds one
   line per case and engine: the case name, then the MD5 of the law's
   (outcome, bits of the probability) pairs.  The cases are the 70
   paper jobs and the 220 differential circuits of stream 0x5AB5E, as
   drawn and with every qubit measured at the end, each on the dense
   and the sparse engine and, where its kernels map, the tableau. *)
let law_digest d =
  let b = Buffer.create 256 in
  List.iter
    (fun (o, p) -> Printf.bprintf b "%d %Ld\n" o (Int64.bits_of_float p))
    (Sim.Dist.to_list d);
  Digest.to_hex (Digest.string (Buffer.contents b))

let exact_golden_lines () =
  let rng = Random.State.make [| 0x5AB5E |] in
  let differential =
    List.concat
      (List.init 220 (fun k ->
           let c = random_dynamic_circuit rng in
           [
             (Printf.sprintf "circuit %d" k, c);
             ( Printf.sprintf "circuit %d + measure-all" k,
               Sim.Measurement_plan.instrument Sim.Measurement_plan.measure_all
                 c );
           ]))
  in
  List.concat_map
    (fun (name, c) ->
      let p = Sim.Program.compile c in
      List.filter_map
        (fun (tag, engine, runs) ->
          if runs then
            Some
              (Printf.sprintf "%s/%s %s" name tag
                 (law_digest (Sim.Exact.program_distribution ~engine p)))
          else None)
        [
          ("dense", dense_engine, true);
          ("sparse", sparse_engine, true);
          ("stabilizer", tableau_engine, Sim.Stabilizer.supports p);
        ])
    (Testkit.paper_jobs () @ differential)

let test_exact_golden () =
  check_golden "exact_golden.txt" (exact_golden_lines ())

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
   and its small amplitude bounds price the enumeration cheaper on the
   sparse engine, though the dense one fits. *)
let test_exact_auto_sparse () =
  let c = dyn2_ladder ~inputs:6 ~ones:(List.init 6 Fun.id) in
  check_bool "at most 16 qubits" true (Circ.num_qubits c <= 16);
  check_bool "enumeration priced cheaper on the sparse engine" true
    ((Sim.Backend.predict ~shots:64 c).exact_engine = Some `Sparse);
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

(* Forced exact checks the cap of the engine that enumerates: past the
   dense cap the sparse engine does, and the all-ones ladder reads 1. *)
let test_forced_exact_wide () =
  let c =
    dyn2_ladder ~inputs:wide_inputs ~ones:(List.init wide_inputs Fun.id)
  in
  Alcotest.check hist_pairs "point mass on 1" [ (1, 32) ]
    (Sim.Runner.to_list
       (Sim.Backend.run ~policy:Sim.Backend.Exact_branch ~seed:2 ~shots:32 c))

(* Forced exact draws every shot from one stream: the histogram is a
   function of the seed, the shot count and the law, so any domain
   count gives the same one, and it lies within the TV bound of the
   law. *)
let test_exact_one_stream () =
  List.iter
    (fun (name, c, shots) ->
      let run domains =
        Sim.Backend.run ~policy:Sim.Backend.Exact_branch ~seed:11 ~domains
          ~shots c
      in
      let h = run 1 in
      List.iter
        (fun domains ->
          check_hist (Printf.sprintf "%s: %d domains" name domains) h
            (run domains))
        [ 2; 4 ];
      check_bool (name ^ ": within the TV bound") true
        (within_tv_bound (Sim.Exact.register_distribution c) h))
    [
      ("mixed-sparsity m8", Testkit.hybrid_witness ~m:8, 64);
      ( "DJ(AND_4) dyn2",
        paper_job Dqc.Toffoli_scheme.Dynamic_2 (dj_and_n 4),
        1024 );
      ( "DJ(AND_8) measure-all",
        Sim.Measurement_plan.instrument Sim.Measurement_plan.measure_all
          (dj_and_n 8),
        4096 );
    ]

(* ------------------------------------------------------------------ *)
(* Auto by predicted cost: the facts it reads and what it returns.     *)

let dj8 () =
  Algorithms.Dj.circuit (Algorithms.Mct_bench.and_n 8)

(* A run of measurements that ends the circuit is one pass of the
   enumeration, not a fork each — whether the circuit carries it or a
   measurement plan appends it — so 1024 shots of DJ(AND_8) measured on
   all 9 qubits go to the exact engine. *)
let test_terminal_measurements_not_forks () =
  let measured =
    Sim.Measurement_plan.instrument Sim.Measurement_plan.measure_all (dj8 ())
  in
  let s = Sim.Backend.resource_summary measured in
  check_int "9 nondeterministic collapses" 9 s.Lint.Resource.nondet_branches;
  check_int "no fork" 0 s.Lint.Resource.forks.(s.Lint.Resource.instructions);
  (match Sim.Backend.select ~shots:1024 measured with
  | `Exact -> ()
  | (`Dense | `Sparse | `Stabilizer | `Hybrid) as e ->
      Alcotest.failf "expected exact, Auto selected %s"
        (Sim.Backend.engine_name e));
  let recorder, _ =
    Obs.Flight.with_recorder (fun () ->
        Sim.Backend.run ~plan:Sim.Measurement_plan.measure_all ~shots:1024
          (dj8 ()))
  in
  match
    List.filter
      (fun (e : Obs.Flight.event) -> e.kind = "backend.select")
      (Obs.Flight.events recorder)
  with
  | [ e ] ->
      check_bool "plan-appended measurements are no fork" true
        (List.assoc_opt "forks" e.data = Some (Obs.Json.Int 0));
      check_bool "plan run selects exact" true
        (List.assoc_opt "winner" e.data = Some (Obs.Json.String "exact"))
  | evs -> Alcotest.failf "expected one backend.select event, got %d" (List.length evs)

(* The per-instruction bounds keep the drop a segment's peak hides: on
   the m = 8 witness the bound climbs to 8 over the H gates and each
   measured superposed qubit lowers it by one. *)
let test_bounds_drop_per_measurement () =
  let s = Sim.Backend.resource_summary (Testkit.hybrid_witness ~m:8) in
  Alcotest.(check (list int))
    "bounds before instructions 8..16"
    [ 8; 7; 6; 5; 4; 3; 2; 1; 0 ]
    (Array.to_list (Array.sub s.Lint.Resource.log2_bounds 8 9));
  check_int "the segment's peak" 8
    (List.nth s.Lint.Resource.segments 1).Lint.Resource.log2_bound_peak

(* The wide-sim shapes at its shot counts: whichever engine wins, Auto's
   histogram is within the TV bound of the exact law. *)
let test_wide_shapes_tv () =
  List.iter
    (fun (name, c, shots) ->
      let h = Sim.Backend.run ~seed:9 ~shots c in
      check_bool
        (Printf.sprintf "%s (%s)" name
           (Sim.Backend.engine_name (Sim.Backend.select ~shots c)))
        true
        (within_tv_bound (exact_on sparse_engine c) h))
    [
      ("AND-7 ladder h7", Testkit.dyn2_ladder ~inputs:7 ~superposed:7 ~ones:[], 384);
      ("mixed-sparsity m8", Testkit.hybrid_witness ~m:8, 64);
      ( "AND-15 ladder",
        dyn2_ladder ~inputs:wide_inputs ~ones:(List.init wide_inputs Fun.id),
        8192 );
      ( "DJ(AND_8) measure-all",
        Sim.Measurement_plan.instrument Sim.Measurement_plan.measure_all
          (dj8 ()),
        1024 );
    ]

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
          Alcotest.test_case "forks bound the held branches" `Slow
            test_forks_sound;
          Alcotest.test_case "forks per branch" `Quick test_forks_per_branch;
          Alcotest.test_case "analyzer reports = golden file" `Quick
            test_analyze_golden;
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
          Alcotest.test_case "hybrid witness" `Quick test_hybrid_witness;
          Alcotest.test_case "hybrid win shape" `Quick test_hybrid_win;
          Alcotest.test_case "randomized AND-7 ladder" `Slow
            test_randomized_ladder;
          Alcotest.test_case "adaptive parity on stabilizer" `Quick
            test_adaptive_parity_stabilizer;
          Alcotest.test_case "dense/sparse x prefix cache x domains" `Quick
            test_backend_plans_identical;
          Alcotest.test_case "walk = per-shot replay" `Quick
            test_walk_equals_replay;
          Alcotest.test_case "auto walk = per-shot replay" `Quick
            test_auto_walk_equals_replay;
        ] );
      ( "exact engines",
        [
          Alcotest.test_case "dense/sparse = fork-everything law" `Quick
            test_exact_engines_match_fork_law;
          Alcotest.test_case "43 qubits on the sparse engine" `Quick
            test_exact_wide_sparse;
          Alcotest.test_case "auto enumerates sparse" `Quick
            test_exact_auto_sparse;
          Alcotest.test_case "forced exact past the dense cap" `Quick
            test_forced_exact_wide;
          Alcotest.test_case "one stream for any domain count" `Quick
            test_exact_one_stream;
          Alcotest.test_case "laws = golden file" `Quick test_exact_golden;
        ] );
      ( "auto by cost",
        [
          Alcotest.test_case "terminal measurements are not forks" `Quick
            test_terminal_measurements_not_forks;
          Alcotest.test_case "bounds drop per measurement" `Quick
            test_bounds_drop_per_measurement;
          Alcotest.test_case "wide shapes within the TV bound" `Quick
            test_wide_shapes_tv;
        ] );
    ]
