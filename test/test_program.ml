open Circuit

(* Compiled execution plans ([Sim.Program]): bit-for-bit differential
   tests against the generic interpreter ([Statevector.run_reference])
   on random circuits and on the paper's DJ family, the one-op-per-
   instruction lowering table, and the default-seed contract. *)

let check_int = Alcotest.(check int)

let hist_pairs = Alcotest.(list (pair int int))

let check_hist msg a b =
  Alcotest.check hist_pairs msg (Sim.Runner.to_list a) (Sim.Runner.to_list b)

(* ------------------------------------------------------------------ *)
(* Differential: compiled ≡ generic interpreter, amplitude for
   amplitude and bit for bit.  Both paths consume the RNG in source
   order and each kernel does the interpreter's float arithmetic, so
   for the same seed the measurement record — and hence the full final
   state — must agree exactly, not merely the distribution. *)

let eps = 0.

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

(* Testkit's random dynamic circuits on up to 10 qubits and 44
   instructions, 220 from one stream plus 50 from a second: (stream
   seed, circuits drawn from it, case label prefix) *)
let random_suites =
  [ ([| 0x5EED; 42 |], 220, ""); ([| 0xD1FF |], 50, "D1FF ") ]

let test_differential_random () =
  List.iter
    (fun (gen_seed, cases, label) ->
      let gen = Random.State.make gen_seed in
      for case = 0 to cases - 1 do
        let c =
          Testkit.random_dynamic_circuit ~max_qubits:10 ~max_instrs:44 gen
        in
        let seed = Random.State.int gen 1_000_000 in
        let run_with f = f ~rng:(Random.State.make [| seed |]) c in
        let compiled = run_with Sim.Statevector.run in
        let reference = run_with Sim.Statevector.run_reference in
        check_states
          ~msg:(Printf.sprintf "%scase %d (seed %d)" label case seed)
          compiled reference
      done)
    random_suites

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
(* Lowering: one op per instruction                                    *)

let circuit_of instrs ~n ~num_bits =
  Circ.create ~roles:(Array.make n Circ.Data) ~num_bits instrs

let u g = Instruction.Unitary (Instruction.app g 0)

let rec kernel_class : Sim.Program.kernel -> string = function
  | Kx _ -> "x"
  | Kh _ -> "h"
  | Kphase _ -> "phase"
  | Kdiag _ -> "diag"
  | Ku2 _ -> "u2"
  | Kmeasure _ -> "measure"
  | Kreset _ -> "reset"
  | Kcond { body; _ } -> "cond " ^ kernel_class body

(* Each row: instructions on up to 3 qubits and 1 bit, and the kernel
   classes [compile] must emit for them, in order.  Every unitary,
   conditioned, measure or reset instruction is one op, whatever its
   neighbours (no merging across or along targets); a barrier is none.
   A gate whose entries are only near 0 or 1 (Rx(2pi), Rz(1e-13)) keeps
   a kernel that multiplies by them, and every row's compiled run
   equals the interpreter's. *)
let test_lowering_table () =
  let app ?controls g q = Instruction.Unitary (Instruction.app ?controls g q) in
  let measure = Instruction.Measure { qubit = 0; bit = 0 } in
  let cond g =
    Instruction.Conditioned (Instruction.cond_bit 0 true, Instruction.app g 0)
  in
  let tests =
    [
      ([ u Gate.X ], [ "x" ]);
      ([ app ~controls:[ 1 ] Gate.X 0 ], [ "x" ]);
      ([ app ~controls:[ 1; 2 ] Gate.X 0 ], [ "x" ]);
      ([ u Gate.H ], [ "h" ]);
      ([ u Gate.Z ], [ "phase" ]);
      ([ u Gate.S ], [ "phase" ]);
      ([ u Gate.T ], [ "phase" ]);
      ([ u (Gate.Phase 0.3) ], [ "phase" ]);
      ([ u (Gate.Rz 0.3) ], [ "diag" ]);
      ([ u Gate.Y ], [ "u2" ]);
      ([ u Gate.V ], [ "u2" ]);
      ([ u (Gate.Rx 0.3) ], [ "u2" ]);
      ([ u (Gate.Ry 0.3) ], [ "u2" ]);
      ([ u (Gate.Rx (2. *. Float.pi)) ], [ "u2" ]);
      ([ u (Gate.Rz 1e-13) ], [ "diag" ]);
      ([ cond Gate.X ], [ "cond x" ]);
      ([ measure ], [ "measure" ]);
      ([ Instruction.Reset 0 ], [ "reset" ]);
      ([ Instruction.Barrier [ 0 ] ], []);
      ([ u Gate.H; u Gate.H ], [ "h"; "h" ]);
      ([ u Gate.T; u Gate.S; u Gate.T ], [ "phase"; "phase"; "phase" ]);
      ( [ app ~controls:[ 0 ] Gate.X 1; app ~controls:[ 0 ] Gate.X 1 ],
        [ "x"; "x" ] );
      ([ u Gate.T; app Gate.T 1; u Gate.T ], [ "phase"; "phase"; "phase" ]);
      ([ u Gate.T; measure; u Gate.T ], [ "phase"; "measure"; "phase" ]);
      ( [ u Gate.T; Instruction.Reset 0; u Gate.T ],
        [ "phase"; "reset"; "phase" ] );
      ( [ u Gate.T; cond Gate.Z; u Gate.T ],
        [ "phase"; "cond phase"; "phase" ] );
      ( [ u Gate.T; Instruction.Barrier [ 0 ]; u Gate.T ],
        [ "phase"; "phase" ] );
    ]
  in
  List.iter
    (fun (instrs, expected) ->
      let c = circuit_of ~n:3 ~num_bits:1 instrs in
      let msg = String.concat "; " (List.map Instruction.to_string instrs) in
      let ops = Sim.Program.kernels (Sim.Program.compile c) in
      Alcotest.(check (list string))
        msg expected
        (Array.to_list (Array.map kernel_class ops));
      let run_with f = f ~rng:(Random.State.make [| 1 |]) c in
      check_states ~msg (run_with Sim.Statevector.run)
        (run_with Sim.Statevector.run_reference))
    tests

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

(* [sub] takes a range of ops on the program's own qubits and bits,
   the ops themselves, and rejects a range outside the program. *)
let test_sub () =
  let c =
    circuit_of ~n:2 ~num_bits:1
      [ u Gate.H; Instruction.Measure { qubit = 0; bit = 0 }; u Gate.X ]
  in
  let p = Sim.Program.compile c in
  let mid = Sim.Program.sub p ~pos:1 ~len:2 in
  check_int "two ops" 2 (Sim.Program.length mid);
  check_int "same qubits" 2 (Sim.Program.num_qubits mid);
  check_int "same bits" 1 (Sim.Program.num_bits mid);
  Alcotest.(check bool) "the program's own ops" true
    (Sim.Program.get mid 0 == Sim.Program.get p 1
    && Sim.Program.get mid 1 == Sim.Program.get p 2);
  check_int "an empty range" 0
    (Sim.Program.length (Sim.Program.sub p ~pos:3 ~len:0));
  Alcotest.check_raises "past the end" (Invalid_argument "Array.sub")
    (fun () -> ignore (Sim.Program.sub p ~pos:2 ~len:2))

(* ------------------------------------------------------------------ *)
(* Allocation                                                         *)

(* Minor-heap words [f] allocates, net of what reading the counter
   around an empty call costs. *)
let minor_words f =
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  measure f -. measure ignore

(* The unitary and conditioned kernels allocate nothing: replaying X,
   CX, CCX, H, a phase and a conditioned X 100 times leaves the minor
   heap untouched. *)
let test_replay_allocation_free () =
  let app ?controls g q = Instruction.app ?controls g q in
  let c =
    circuit_of ~n:4 ~num_bits:1
      [
        Instruction.Unitary (app Gate.X 0);
        Instruction.Unitary (app ~controls:[ 0 ] Gate.X 1);
        Instruction.Unitary (app ~controls:[ 0; 1 ] Gate.X 2);
        Instruction.Unitary (app Gate.H 3);
        Instruction.Unitary (app Gate.T 2);
        Instruction.Conditioned (Instruction.cond_bit 0 false, app Gate.X 1);
      ]
  in
  let p = Sim.Program.compile c in
  check_int "one op per gate" 6 (Sim.Program.length p);
  let st = Sim.Program.fresh_state p in
  let replay () =
    for _ = 1 to 100 do
      Sim.Program.exec ~random:Sim.Program.no_random st p
    done
  in
  replay ();
  Alcotest.(check (float 0.)) "minor words" 0. (minor_words replay)

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
  let draw rngs ~lo ~hi =
    List.init (hi - lo) (fun i -> (Random.State.int rngs.(lo + i) 4, 1))
  in
  check_hist "Parallel default = explicit default_seed"
    (Sim.Parallel.run ~width:2 ~shots draw)
    (Sim.Parallel.run ~seed:Sim.Runner.default_seed ~width:2 ~shots draw)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "program"
    [
      ( "differential",
        [
          Alcotest.test_case "220 random circuits" `Quick
            test_differential_random;
          Alcotest.test_case "DJ family x schemes" `Quick
            test_differential_dj_family;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "one op per instruction" `Quick
            test_lowering_table;
          Alcotest.test_case "split at first branch" `Quick test_split_prefix;
          Alcotest.test_case "sub keeps the shape" `Quick test_sub;
        ] );
      ( "seed",
        [ Alcotest.test_case "default-seed contract" `Quick test_default_seed ] );
      ( "alloc",
        [
          Alcotest.test_case "replay allocates nothing" `Quick
            test_replay_allocation_free;
        ] );
    ]
