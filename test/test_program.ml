open Circuit

(* Compiled execution plans ([Sim.Program]): differential tests
   against the generic interpreter ([Statevector.run_reference]) on
   random circuits and on the paper's DJ family, fusion unit tests, and
   the default-seed contract. *)

let check_int = Alcotest.(check int)

let hist_pairs = Alcotest.(list (pair int int))

let check_hist msg a b =
  Alcotest.check hist_pairs msg (Sim.Runner.to_list a) (Sim.Runner.to_list b)

(* ------------------------------------------------------------------ *)
(* Random circuit generator: plain/controlled unitaries, mid-circuit
   measurement, active reset, classically conditioned gates, barriers *)

let random_gate rng =
  match Random.State.int rng 14 with
  | 0 -> Gate.H
  | 1 -> Gate.X
  | 2 -> Gate.Y
  | 3 -> Gate.Z
  | 4 -> Gate.S
  | 5 -> Gate.Sdg
  | 6 -> Gate.T
  | 7 -> Gate.Tdg
  | 8 -> Gate.V
  | 9 -> Gate.Vdg
  | 10 -> Gate.Rx (Random.State.float rng 6.28)
  | 11 -> Gate.Ry (Random.State.float rng 6.28)
  | 12 -> Gate.Rz (Random.State.float rng 6.28)
  | _ -> Gate.Phase (Random.State.float rng 6.28)

(* [k] distinct qubits of [n], target first *)
let distinct_qubits rng n k =
  let chosen = ref [] in
  while List.length !chosen < k do
    let q = Random.State.int rng n in
    if not (List.mem q !chosen) then chosen := q :: !chosen
  done;
  !chosen

let random_instr rng ~n ~num_bits : Instruction.t =
  match Random.State.int rng 12 with
  | 0 | 1 | 2 | 3 ->
      Instruction.Unitary
        (Instruction.app (random_gate rng) (Random.State.int rng n))
  | 4 | 5 ->
      if n < 2 then
        Instruction.Unitary
          (Instruction.app (random_gate rng) (Random.State.int rng n))
      else
        let k = min n (2 + Random.State.int rng 2) in
        (match distinct_qubits rng n k with
        | target :: controls ->
            Instruction.Unitary
              (Instruction.app ~controls (random_gate rng) target)
        | [] -> assert false)
  | 6 | 7 ->
      Instruction.Measure
        { qubit = Random.State.int rng n; bit = Random.State.int rng num_bits }
  | 8 -> Instruction.Reset (Random.State.int rng n)
  | 9 | 10 ->
      let cond =
        Instruction.cond_bit
          (Random.State.int rng num_bits)
          (Random.State.bool rng)
      in
      let controls =
        if n >= 2 && Random.State.bool rng then
          match distinct_qubits rng n 2 with
          | [ _; c ] -> [ c ]
          | _ -> []
        else []
      in
      let target =
        let rec pick () =
          let t = Random.State.int rng n in
          if List.mem t controls then pick () else t
        in
        pick ()
      in
      Instruction.Conditioned (cond, Instruction.app ~controls (random_gate rng) target)
  | _ -> Instruction.Barrier (distinct_qubits rng n (1 + Random.State.int rng n))

let random_circuit rng =
  let n = 1 + Random.State.int rng 10 in
  let num_bits = 1 + Random.State.int rng 4 in
  let depth = 5 + Random.State.int rng 40 in
  let instrs = List.init depth (fun _ -> random_instr rng ~n ~num_bits) in
  Circ.create ~roles:(Array.make n Circ.Data) ~num_bits instrs

(* ------------------------------------------------------------------ *)
(* Differential: compiled ≡ generic interpreter, amplitude for
   amplitude.  Both paths consume the RNG in source order, so for the
   same seed the measurement record — and hence the full final state —
   must agree, not merely the distribution. *)

let eps = 1e-9

let check_states ~msg a b =
  check_int (msg ^ ": register") (Sim.Statevector.register b)
    (Sim.Statevector.register a);
  let va = Sim.Statevector.amplitudes a
  and vb = Sim.Statevector.amplitudes b in
  check_int (msg ^ ": dim") (Linalg.Cvec.dim vb) (Linalg.Cvec.dim va);
  for i = 0 to Linalg.Cvec.dim va - 1 do
    let x = Linalg.Cvec.get va i and y = Linalg.Cvec.get vb i in
    if
      Float.abs (x.Complex.re -. y.Complex.re) > eps
      || Float.abs (x.Complex.im -. y.Complex.im) > eps
    then
      Alcotest.failf "%s: amplitude %d differs: (%g,%g) vs (%g,%g)" msg i
        x.Complex.re x.Complex.im y.Complex.re y.Complex.im
  done

let test_differential_random () =
  let gen = Random.State.make [| 0x5EED; 42 |] in
  for case = 0 to 219 do
    let c = random_circuit gen in
    let seed = Random.State.int gen 1_000_000 in
    let run_with f = f ~rng:(Random.State.make [| seed |]) c in
    let compiled = run_with Sim.Statevector.run in
    let reference = run_with Sim.Statevector.run_reference in
    check_states ~msg:(Printf.sprintf "case %d (seed %d)" case seed) compiled
      reference
  done

let test_differential_unfused () =
  (* fusion off: the 1:1 lowering must match the interpreter too *)
  let gen = Random.State.make [| 0xD1FF |] in
  for case = 0 to 49 do
    let c = random_circuit gen in
    let seed = Random.State.int gen 1_000_000 in
    let program = Sim.Program.compile ~fuse:false c in
    let compiled =
      Sim.Program.run ~rng:(Random.State.make [| seed |]) program
    in
    let reference =
      Sim.Statevector.run_reference ~rng:(Random.State.make [| seed |]) c
    in
    check_states ~msg:(Printf.sprintf "unfused case %d" case) compiled reference
  done

(* The paper's DJ family, traditional and under both dynamic schemes:
   the compiled run must match the interpreter on every seed. *)
let test_differential_dj_family () =
  List.iter
    (fun name ->
      let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name name) in
      let dj = Algorithms.Dj.circuit o in
      let dyn scheme = (Dqc.Toffoli_scheme.transform scheme dj).circuit in
      List.iter
        (fun (label, c) ->
          List.iter
            (fun seed ->
              let run_with f = f ~rng:(Random.State.make [| seed |]) c in
              check_states
                ~msg:(Printf.sprintf "DJ(%s) %s, seed %d" name label seed)
                (run_with Sim.Statevector.run)
                (run_with Sim.Statevector.run_reference))
            [ 1; 7; 42 ])
        [
          ("traditional", dj);
          ("dyn1", dyn Dqc.Toffoli_scheme.Dynamic_1);
          ("dyn2", dyn Dqc.Toffoli_scheme.Dynamic_2);
        ])
    [ "AND"; "OR"; "NAND"; "CARRY" ]

(* ------------------------------------------------------------------ *)
(* Fusion units                                                       *)

let circuit_of instrs ~n ~num_bits =
  Circ.create ~roles:(Array.make n Circ.Data) ~num_bits instrs

let u g = Instruction.Unitary (Instruction.app g 0)

let test_fuse_hh_identity () =
  let c = circuit_of ~n:1 ~num_bits:0 [ u Gate.H; u Gate.H ] in
  let p = Sim.Program.compile c in
  check_int "HH fuses to nothing" 0 (Sim.Program.length p);
  check_int "both applications eliminated" 2 (Sim.Program.fused_count p);
  let st = Sim.Program.run ~rng:(Random.State.make [| 1 |]) p in
  Alcotest.(check (float 1e-12))
    "state is |0>" 1.
    (Sim.Statevector.probabilities st).(0)

let test_fuse_adjacent_phases () =
  let c = circuit_of ~n:1 ~num_bits:0 [ u Gate.T; u Gate.S; u Gate.T ] in
  let p = Sim.Program.compile c in
  check_int "T;S;T merges into one op" 1 (Sim.Program.length p);
  check_int "two applications eliminated" 2 (Sim.Program.fused_count p)

let test_fuse_cx_pair () =
  let cx = Instruction.Unitary (Instruction.app ~controls:[ 0 ] Gate.X 1) in
  let c = circuit_of ~n:2 ~num_bits:0 [ cx; cx ] in
  let p = Sim.Program.compile c in
  check_int "CX;CX cancels" 0 (Sim.Program.length p)

let test_no_fuse_across_targets () =
  let c =
    circuit_of ~n:2 ~num_bits:0
      [
        u Gate.T;
        Instruction.Unitary (Instruction.app Gate.T 1);
        u Gate.T;
      ]
  in
  let p = Sim.Program.compile c in
  (* T(q0); T(q1); T(q0): the q1 gate interleaves, but fusion only
     groups *adjacent* gates on one target, so nothing merges *)
  check_int "different targets do not merge" 3 (Sim.Program.length p)

let test_fusion_barriers () =
  let barriers =
    [
      ("measure", Instruction.Measure { qubit = 0; bit = 0 });
      ("reset", Instruction.Reset 0);
      ( "conditioned",
        Instruction.Conditioned
          (Instruction.cond_bit 0 true, Instruction.app Gate.Z 0) );
    ]
  in
  List.iter
    (fun (name, barrier_instr) ->
      let c = circuit_of ~n:1 ~num_bits:1 [ u Gate.T; barrier_instr; u Gate.T ] in
      let p = Sim.Program.compile c in
      check_int (name ^ " is a fusion barrier") 3 (Sim.Program.length p);
      check_int (name ^ ": nothing eliminated") 0 (Sim.Program.fused_count p))
    barriers

let test_plain_barrier_flushes_but_vanishes () =
  let c =
    circuit_of ~n:1 ~num_bits:0 [ u Gate.T; Instruction.Barrier [ 0 ]; u Gate.T ]
  in
  let p = Sim.Program.compile c in
  (* the barrier itself emits no op but still cuts the fusion window *)
  check_int "barrier cuts fusion, emits nothing" 2 (Sim.Program.length p)

let test_split_prefix () =
  let c =
    circuit_of ~n:1 ~num_bits:1
      [ u Gate.H; Instruction.Measure { qubit = 0; bit = 0 }; u Gate.X ]
  in
  let prefix, suffix = Sim.Program.split_prefix (Sim.Program.compile c) in
  check_int "prefix = the H" 1 (Sim.Program.length prefix);
  check_int "suffix = measure + X" 2 (Sim.Program.length suffix);
  (* the prefix draws no randomness; the suffix opens with a draw *)
  let st = Sim.Program.fresh_state prefix in
  Sim.Program.exec ~random:Sim.Program.no_random st prefix;
  Alcotest.check_raises "suffix draws" Sim.Program.Unexpected_random_draw
    (fun () -> Sim.Program.exec ~random:Sim.Program.no_random st suffix)

(* ------------------------------------------------------------------ *)
(* Default-seed contract (shared constant across engines)             *)

let test_default_seed () =
  check_int "documented constant" 0xC0FFEE Sim.Runner.default_seed;
  let b = Circ.Builder.make ~roles:(Array.make 2 Circ.Data) ~num_bits:2 () in
  Circ.Builder.h b 0;
  Circ.Builder.cx b 0 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  let c = Circ.Builder.build b in
  let shots = 200 in
  check_hist "Backend dense default = explicit default_seed"
    (Sim.Backend.run ~policy:Sim.Backend.Statevector_dense ~shots c)
    (Sim.Backend.run ~policy:Sim.Backend.Statevector_dense
       ~seed:Sim.Runner.default_seed ~shots c);
  check_hist "Backend default = explicit default_seed"
    (Sim.Backend.run ~shots c)
    (Sim.Backend.run ~seed:Sim.Runner.default_seed ~shots c);
  check_hist "Parallel default = explicit default_seed"
    (Sim.Parallel.run ~width:2 ~shots (fun ~rng ~index:_ ->
         Random.State.int rng 4))
    (Sim.Parallel.run ~seed:Sim.Runner.default_seed ~width:2 ~shots
       (fun ~rng ~index:_ -> Random.State.int rng 4))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "program"
    [
      ( "differential",
        [
          Alcotest.test_case "220 random circuits" `Quick
            test_differential_random;
          Alcotest.test_case "unfused lowering" `Quick
            test_differential_unfused;
          Alcotest.test_case "DJ family x schemes" `Quick
            test_differential_dj_family;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "HH = I dropped" `Quick test_fuse_hh_identity;
          Alcotest.test_case "adjacent phases merge" `Quick
            test_fuse_adjacent_phases;
          Alcotest.test_case "CX pair cancels" `Quick test_fuse_cx_pair;
          Alcotest.test_case "no merge across targets" `Quick
            test_no_fuse_across_targets;
          Alcotest.test_case "measure/reset/cond are barriers" `Quick
            test_fusion_barriers;
          Alcotest.test_case "plain barrier" `Quick
            test_plain_barrier_flushes_but_vanishes;
          Alcotest.test_case "split at first branch" `Quick test_split_prefix;
        ] );
      ( "seed",
        [ Alcotest.test_case "default-seed contract" `Quick test_default_seed ] );
    ]
