open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let all_fixed_gates = Gate.[ H; X; Y; Z; S; Sdg; T; Tdg; V; Vdg ]
let all_gates = all_fixed_gates @ Gate.[ Rx 0.3; Ry 1.2; Rz (-0.7); Phase 0.9 ]

(* ------------------------------------------------------------------ *)
(* Gate                                                               *)

let test_all_unitary () =
  List.iter
    (fun g ->
      check_bool (Gate.name g ^ " unitary") true
        (Linalg.Cmat.is_unitary (Gate.matrix g)))
    all_gates

let test_adjoint_involution () =
  List.iter
    (fun g ->
      check_bool
        (Gate.name g ^ " adjoint involution")
        true
        (Gate.equal g (Gate.adjoint (Gate.adjoint g)));
      let prod =
        Linalg.Cmat.mul (Gate.matrix g) (Gate.matrix (Gate.adjoint g))
      in
      check_bool (Gate.name g ^ " g g^dag = I") true
        (Linalg.Cmat.approx_equal prod (Linalg.Cmat.identity 2)))
    all_gates

let test_gate_algebra () =
  let eq a b = Linalg.Cmat.approx_equal a b in
  let m = Gate.matrix in
  check_bool "V^2 = X" true (eq (Linalg.Cmat.mul (m Gate.V) (m Gate.V)) (m Gate.X));
  check_bool "S^2 = Z" true (eq (Linalg.Cmat.mul (m Gate.S) (m Gate.S)) (m Gate.Z));
  check_bool "T^2 = S" true (eq (Linalg.Cmat.mul (m Gate.T) (m Gate.T)) (m Gate.S));
  check_bool "HZH = X" true
    (eq
       (Linalg.Cmat.mul (m Gate.H) (Linalg.Cmat.mul (m Gate.Z) (m Gate.H)))
       (m Gate.X));
  check_bool "Phase(pi) = Z" true (eq (m (Gate.Phase Float.pi)) (m Gate.Z))

let test_is_diagonal_consistent () =
  List.iter
    (fun g ->
      let m = Gate.matrix g in
      let off_diag_zero =
        Linalg.Complex_ext.is_zero (Linalg.Cmat.get m 0 1)
        && Linalg.Complex_ext.is_zero (Linalg.Cmat.get m 1 0)
      in
      check_bool (Gate.name g ^ " diagonal flag") off_diag_zero
        (Gate.is_diagonal g))
    all_gates

let test_names () =
  check_string "h" "h" (Gate.name Gate.H);
  check_string "tdg" "tdg" (Gate.name Gate.Tdg);
  check_string "rz" "rz(0.5)" (Gate.name (Gate.Rz 0.5))

let test_clifford_t () =
  check_bool "T in" true (Gate.is_clifford_t Gate.T);
  check_bool "V out" false (Gate.is_clifford_t Gate.V);
  check_bool "Rx out" false (Gate.is_clifford_t (Gate.Rx 0.1))

(* ------------------------------------------------------------------ *)
(* Instruction                                                        *)

let test_instr_qubits_bits () =
  let i = Instruction.Unitary (Instruction.app ~controls:[ 2; 0 ] Gate.X 1) in
  Alcotest.(check (list int)) "qubits" [ 2; 0; 1 ] (Instruction.qubits i);
  Alcotest.(check (list int)) "bits" [] (Instruction.bits i);
  let m = Instruction.Measure { qubit = 3; bit = 1 } in
  Alcotest.(check (list int)) "measure qubits" [ 3 ] (Instruction.qubits m);
  Alcotest.(check (list int)) "measure bits" [ 1 ] (Instruction.bits m);
  let cnd =
    Instruction.Conditioned (Instruction.cond_bit 0 true, Instruction.app Gate.X 1)
  in
  Alcotest.(check (list int)) "conditioned bits" [ 0 ] (Instruction.bits cnd)

let test_instr_map_adjoint () =
  let i = Instruction.Unitary (Instruction.app ~controls:[ 0 ] Gate.V 1) in
  let j = Instruction.map_qubits (fun q -> q + 5) i in
  Alcotest.(check (list int)) "mapped" [ 5; 6 ] (Instruction.qubits j);
  (match Instruction.adjoint i with
  | Instruction.Unitary a -> check_bool "vdg" true (Gate.equal a.gate Gate.Vdg)
  | Instruction.Conditioned _ | Instruction.Measure _ | Instruction.Reset _
  | Instruction.Barrier _ ->
      Alcotest.fail "expected unitary");
  Alcotest.check_raises "adjoint of reset"
    (Invalid_argument "Instruction.adjoint: non-unitary instruction")
    (fun () -> ignore (Instruction.adjoint (Instruction.Reset 0)))

let test_well_formed () =
  let wf = Instruction.well_formed ~num_qubits:3 ~num_bits:1 in
  check_bool "ok" true
    (wf (Instruction.Unitary (Instruction.app ~controls:[ 0 ] Gate.X 1)));
  check_bool "dup control/target" false
    (wf (Instruction.Unitary (Instruction.app ~controls:[ 1 ] Gate.X 1)));
  check_bool "qubit range" false (wf (Instruction.Unitary (Instruction.app Gate.X 3)));
  check_bool "bit range" false (wf (Instruction.Measure { qubit = 0; bit = 1 }));
  check_bool "measure ok" true (wf (Instruction.Measure { qubit = 0; bit = 0 }))

let test_instr_to_string () =
  check_string "cx" "cx q0, q1"
    (Instruction.to_string
       (Instruction.Unitary (Instruction.app ~controls:[ 0 ] Gate.X 1)));
  check_string "ccx" "ccx q0, q1, q2"
    (Instruction.to_string
       (Instruction.Unitary (Instruction.app ~controls:[ 0; 1 ] Gate.X 2)));
  check_string "conditioned" "if (c0 == 1) x q1"
    (Instruction.to_string
       (Instruction.Conditioned
          (Instruction.cond_bit 0 true, Instruction.app Gate.X 1)));
  check_string "measure" "measure q2 -> c0"
    (Instruction.to_string (Instruction.Measure { qubit = 2; bit = 0 }))

let test_cond_helpers () =
  let c = Instruction.cond_all [ 0; 2 ] in
  check_bool "holds on 101" true (Instruction.cond_holds c 0b101);
  check_bool "fails on 001" false (Instruction.cond_holds c 0b001);
  let c2 = Instruction.cond_bit 1 false in
  check_bool "negative test holds" true (Instruction.cond_holds c2 0b101);
  check_bool "negative test fails" false (Instruction.cond_holds c2 0b010);
  check_bool "empty conjunction always true" true
    (Instruction.cond_holds { Instruction.bits = [] } 0b111)

let test_cond_to_string () =
  check_string "conjunction" "if (c0 == 1 && c2 == 0) x q1"
    (Instruction.to_string
       (Instruction.Conditioned
          ({ Instruction.bits = [ (0, true); (2, false) ] },
           Instruction.app Gate.X 1)))

(* ------------------------------------------------------------------ *)
(* Circ                                                               *)

let roles2 = [| Circ.Data; Circ.Answer |]

let test_create_validates () =
  Alcotest.check_raises "bad instruction"
    (Invalid_argument
       "Circ.create: ill-formed instruction x q5 (2 qubits, 0 bits)")
    (fun () ->
      ignore
        (Circ.create ~roles:roles2 ~num_bits:0
           [ Instruction.Unitary (Instruction.app Gate.X 5) ]))

let test_builder_roundtrip () =
  let b = Circ.Builder.make ~roles:roles2 ~num_bits:1 () in
  Circ.Builder.h b 0;
  Circ.Builder.cx b 0 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.reset b 0;
  Circ.Builder.conditioned b ~bit:0 Gate.X 1;
  let c = Circ.Builder.build b in
  check_int "num instrs" 5 (List.length (Circ.instructions c));
  check_int "num qubits" 2 (Circ.num_qubits c);
  check_int "num bits" 1 (Circ.num_bits c);
  check_bool "role" true (Circ.role c 1 = Circ.Answer)

let test_roles_query () =
  let roles = [| Circ.Data; Circ.Ancilla; Circ.Answer; Circ.Data |] in
  let c = Circ.create ~roles ~num_bits:0 [] in
  Alcotest.(check (list int)) "data" [ 0; 3 ] (Circ.qubits_with_role c Circ.Data);
  Alcotest.(check (list int)) "ancilla" [ 1 ] (Circ.qubits_with_role c Circ.Ancilla);
  Alcotest.(check (list int)) "answer" [ 2 ] (Circ.qubits_with_role c Circ.Answer)

let test_concat_append () =
  let mk instrs = Circ.create ~roles:roles2 ~num_bits:0 instrs in
  let a = mk [ Instruction.Unitary (Instruction.app Gate.H 0) ] in
  let b = mk [ Instruction.Unitary (Instruction.app Gate.X 1) ] in
  check_int "concat" 2 (List.length (Circ.instructions (Circ.concat a b)));
  let c = Circ.append a [ Instruction.Reset 0 ] in
  check_int "append" 2 (List.length (Circ.instructions c));
  let other = Circ.create ~roles:[| Circ.Data |] ~num_bits:0 [] in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Circ.concat: shape mismatch") (fun () ->
      ignore (Circ.concat a other))

let test_map_instructions () =
  let c =
    Circ.create ~roles:roles2 ~num_bits:0
      [ Instruction.Unitary (Instruction.app Gate.H 0) ]
  in
  let doubled = Circ.map_instructions (fun i -> [ i; i ]) c in
  check_int "doubled" 2 (List.length (Circ.instructions doubled))

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

let bell () =
  let b = Circ.Builder.make ~roles:roles2 ~num_bits:2 () in
  Circ.Builder.h b 0;
  Circ.Builder.cx b 0 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  Circ.Builder.build b

let test_gate_count_conventions () =
  let c = bell () in
  check_int "measures not counted" 2 (Metrics.gate_count c);
  let b = Circ.Builder.make ~roles:roles2 ~num_bits:1 () in
  Circ.Builder.reset b 0;
  Circ.Builder.conditioned b ~bit:0 Gate.X 1;
  Circ.Builder.barrier b [ 0; 1 ];
  let c2 = Circ.Builder.build b in
  check_int "reset and conditioned counted, barrier not" 2 (Metrics.gate_count c2)

let test_stats () =
  let s = Metrics.stats (bell ()) in
  check_int "unitary" 2 s.Metrics.unitary;
  check_int "two_qubit" 1 s.Metrics.two_qubit;
  check_int "measure" 2 s.Metrics.measure

let test_t_and_cx_counts () =
  let b = Circ.Builder.make ~roles:roles2 ~num_bits:1 () in
  Circ.Builder.gate b Gate.T 0;
  Circ.Builder.gate b Gate.Tdg 1;
  Circ.Builder.cx b 0 1;
  Circ.Builder.cv b 0 1;
  Circ.Builder.conditioned b ~bit:0 Gate.T 0;
  let c = Circ.Builder.build b in
  check_int "t count includes conditioned" 3 (Metrics.t_count c)

let test_depth_basics () =
  let c = bell () in
  check_int "bell depth with measures" 3 (Metrics.dynamic_depth c);
  check_int "bell depth without measures" 2 (Metrics.traditional_depth c)

let test_depth_classical_ordering () =
  let b = Circ.Builder.make ~roles:roles2 ~num_bits:1 () in
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.conditioned b ~bit:0 Gate.X 1;
  let c = Circ.Builder.build b in
  check_int "feedforward serializes" 2 (Metrics.depth c);
  check_int "without measure layer" 1 (Metrics.depth ~include_measure:false c)

let test_depth_parallel () =
  let b = Circ.Builder.make ~roles:[| Circ.Data; Circ.Data |] ~num_bits:0 () in
  Circ.Builder.h b 0;
  Circ.Builder.h b 1;
  Circ.Builder.h b 0;
  check_int "parallel wires" 2 (Metrics.depth (Circ.Builder.build b))

let test_duration_basics () =
  let t = Metrics.default_timing in
  let b = Circ.Builder.make ~roles:roles2 ~num_bits:1 () in
  Circ.Builder.h b 0;
  Circ.Builder.cx b 0 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  let c = Circ.Builder.build b in
  Alcotest.(check (float 1e-6)) "serial chain"
    (t.Metrics.t_1q +. t.Metrics.t_2q +. t.Metrics.t_measure)
    (Metrics.duration c)

let test_duration_parallel () =
  let t = Metrics.default_timing in
  let b = Circ.Builder.make ~roles:[| Circ.Data; Circ.Data |] ~num_bits:0 () in
  Circ.Builder.h b 0;
  Circ.Builder.h b 1;
  let c = Circ.Builder.build b in
  Alcotest.(check (float 1e-6)) "parallel 1q" t.Metrics.t_1q (Metrics.duration c)

let test_duration_feedforward () =
  let t = Metrics.default_timing in
  let b = Circ.Builder.make ~roles:roles2 ~num_bits:1 () in
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.conditioned b ~bit:0 Gate.X 1;
  let c = Circ.Builder.build b in
  (* the conditioned gate waits for measure + classical round trip,
     even though its qubit was free *)
  Alcotest.(check (float 1e-6)) "feedforward latency"
    (t.Metrics.t_measure +. t.Metrics.t_feedforward +. t.Metrics.t_1q)
    (Metrics.duration c)

(* ------------------------------------------------------------------ *)
(* Draw / Qasm                                                        *)

let dynamic_sample () =
  let b = Circ.Builder.make ~roles:roles2 ~num_bits:1 () in
  Circ.Builder.h b 0;
  Circ.Builder.cv b 0 1;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.reset b 0;
  Circ.Builder.conditioned b ~bit:0 Gate.X 0;
  Circ.Builder.build b

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_draw () =
  let s = Draw.to_string (dynamic_sample ()) in
  check_bool "has control dot" true (contains s "*");
  check_bool "has v box" true (contains s "[v]");
  check_bool "has measure" true (contains s "[M0]");
  check_bool "has reset" true (contains s "[R]");
  check_bool "has conditioned" true (contains s "[x?c0]")

let test_draw_wrapping () =
  let b = Circ.Builder.make ~roles:roles2 ~num_bits:1 () in
  for _ = 1 to 12 do
    Circ.Builder.h b 0
  done;
  let c = Circ.Builder.build b in
  let unwrapped = Draw.to_string c in
  let wrapped = Draw.to_string ~max_width:30 c in
  check_bool "single panel unwrapped" false (contains unwrapped "...");
  check_bool "panels split" true (contains wrapped "...");
  (* every line fits the budget *)
  String.split_on_char '\n' wrapped
  |> List.iter (fun line ->
         check_bool "line width" true (String.length line <= 32))

let test_qasm () =
  let s = Qasm.to_string (dynamic_sample ()) in
  check_bool "header" true (contains s "OPENQASM 3.0;");
  let multi =
    Circ.create ~roles:roles2 ~num_bits:3
      [
        Instruction.Conditioned
          (Instruction.cond_all [ 0; 2 ], Instruction.app Gate.X 1);
      ]
  in
  check_bool "conjunctive if" true
    (contains (Qasm.to_string multi) "if (c[0] == 1 && c[2] == 1) { x q[1]; }");
  check_bool "csx for CV" true (contains s "csx q[0], q[1];");
  check_bool "measure" true (contains s "c[0] = measure q[0];");
  check_bool "reset" true (contains s "reset q[0];");
  check_bool "if" true (contains s "if (c[0] == 1) { x q[0]; }")

(* ------------------------------------------------------------------ *)
(* Qasm parser                                                        *)

let test_qasm_roundtrip_dynamic () =
  let c = dynamic_sample () in
  let parsed = Qasm.parse ~roles:(Circ.roles c) (Qasm.to_string c) in
  check_bool "roundtrip" true (Circ.equal parsed c)

let test_qasm_parse_basics () =
  let src =
    "OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[3] q;\nbit[2] c;\n\
     // a comment\nh q[0];\nccx q[0], q[1], q[2];\nrz(0.5) q[1];\n\
     c[0] = measure q[0];\nreset q[0];\nif (c[0] == 1 && c[1] == 0) { sx q[2]; }\n\
     barrier q[0], q[1];"
  in
  let c = Qasm.parse src in
  check_int "qubits" 3 (Circ.num_qubits c);
  check_int "bits" 2 (Circ.num_bits c);
  check_int "instructions" 7 (List.length (Circ.instructions c));
  match Circ.instructions c with
  | [ _; Instruction.Unitary ccx; _; _; _; Instruction.Conditioned (cond, sx); _ ] ->
      Alcotest.(check (list int)) "ccx controls" [ 0; 1 ] ccx.Instruction.controls;
      check_bool "conjunction" true
        (cond.Instruction.bits = [ (0, true); (1, false) ]);
      check_bool "sx is V" true (Gate.equal sx.Instruction.gate Gate.V)
  | _ -> Alcotest.fail "unexpected instruction shapes"

let test_qasm_parse_errors () =
  let bad src =
    try
      ignore (Qasm.parse src);
      false
    with Qasm.Parse_error _ -> true
  in
  check_bool "unknown gate" true (bad "qubit[1] q;\nfoo q[0];");
  check_bool "missing qubits" true
    (try
       ignore (Qasm.parse "bit[1] c;");
       false
     with Qasm.Parse_error _ -> true);
  check_bool "operand count" true (bad "qubit[2] q;\ncx q[0];");
  check_bool "bad number" true (bad "qubit[1] q;\nrz(zz) q[0];");
  check_bool "parameter on h" true (bad "qubit[1] q;\nh(0.5) q[0];")

(* A qubit register wider than any engine runs is refused at its
   declaration, before the parser allocates its roles; the widest one
   the tableau runs parses. *)
let test_qasm_register_bound () =
  let widest = Circ.max_qubits in
  let decl n = Printf.sprintf "OPENQASM 3.0;\nqubit[%d] q;\nh q[0];\n" n in
  check_int "widest register" widest (Circ.num_qubits (Qasm.parse (decl widest)));
  match Qasm.parse (decl (widest + 1)) with
  | (_ : Circ.t) -> Alcotest.fail "a register past the bound parsed"
  | exception Qasm.Parse_error msg ->
      check_bool ("names the line: " ^ msg) true
        (String.starts_with ~prefix:"line 2: " msg)

let prop_qasm_roundtrip =
  Testkit.circuit_test ~name:"qasm roundtrip on random dynamic circuits"
    ~count:100 ~max_qubits:3 ~max_instrs:25 (fun c ->
      Circ.equal (Qasm.parse (Qasm.to_string c)) c)

let prop_qasm_parser_total =
  (* the parser never escapes with an unexpected exception *)
  QCheck2.Test.make ~name:"qasm parser is total" ~count:200
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 60))
    (fun src ->
      match Qasm.parse src with
      | (_ : Circ.t) -> true
      | exception Qasm.Parse_error _ -> true)

(* The printing of a random dynamic circuit with one mutation: a
   bracketed number (a register width, a qubit or bit index) replaced
   by a value in or out of range, a line dropped, doubled or swapped
   with the next, or the text cut short. *)
let mutated_printing_gen =
  QCheck2.Gen.(
    map
      (fun (c, kind, pick, value) ->
        let src = Qasm.to_string c in
        let lines = Array.of_list (String.split_on_char '\n' src) in
        let nl = Array.length lines in
        let with_lines f = String.concat "\n" (List.concat (List.init nl f)) in
        match kind with
        | 0 | 1 ->
            (* the digits after each '[' *)
            let digit i =
              i < String.length src && src.[i] >= '0' && src.[i] <= '9'
            in
            let numbers = ref [] in
            String.iteri
              (fun i ch ->
                if ch = '[' && digit (i + 1) then begin
                  let j = ref (i + 1) in
                  while digit !j do incr j done;
                  numbers := (i + 1, !j) :: !numbers
                end)
              src;
            let start, stop =
              List.nth !numbers (pick mod List.length !numbers)
            in
            String.sub src 0 start ^ string_of_int value
            ^ String.sub src stop (String.length src - stop)
        | 2 ->
            let k = pick mod nl in
            with_lines (fun i -> if i = k then [] else [ lines.(i) ])
        | 3 ->
            let k = pick mod nl in
            with_lines (fun i ->
                if i = k then [ lines.(i); lines.(i) ] else [ lines.(i) ])
        | 4 ->
            let k = pick mod (nl - 1) in
            with_lines (fun i ->
                if i = k then [ lines.(k + 1) ]
                else if i = k + 1 then [ lines.(k) ]
                else [ lines.(i) ])
        | _ -> String.sub src 0 (pick mod String.length src))
      (quad
         (Testkit.circuit_gen ~max_qubits:6 ~max_instrs:16)
         (int_bound 5) nat
         (oneofl [ -2; -1; 0; 1; 2; 3; 7; 62; 63; 71; 91 ])))

let prop_qasm_parse_errors_typed =
  QCheck2.Test.make ~name:"qasm parser raises only Parse_error on mutations"
    ~count:300 ~print:Fun.id mutated_printing_gen (fun src ->
      match Qasm.parse src with
      | (_ : Circ.t) -> true
      | exception Qasm.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)

let gate_gen = QCheck2.Gen.oneofl all_fixed_gates

let prop_diagonal_pairs_commute =
  QCheck2.Test.make ~name:"diagonal gates commute" ~count:100
    QCheck2.Gen.(pair gate_gen gate_gen)
    (fun (a, b) ->
      QCheck2.assume (Gate.is_diagonal a && Gate.is_diagonal b);
      Linalg.Cmat.commutator_norm (Gate.matrix a) (Gate.matrix b) < 1e-9)

let prop_adjoint_keeps_family =
  QCheck2.Test.make ~name:"adjoint keeps gate family" ~count:100 gate_gen
    (fun g ->
      Gate.is_clifford_t g = Gate.is_clifford_t (Gate.adjoint g)
      && Gate.is_diagonal g = Gate.is_diagonal (Gate.adjoint g))

let () =
  Alcotest.run "circuit"
    [
      ( "gate",
        [
          Alcotest.test_case "all unitary" `Quick test_all_unitary;
          Alcotest.test_case "adjoint involution" `Quick test_adjoint_involution;
          Alcotest.test_case "algebra" `Quick test_gate_algebra;
          Alcotest.test_case "diagonal flag" `Quick test_is_diagonal_consistent;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "clifford+t" `Quick test_clifford_t;
        ] );
      ( "instruction",
        [
          Alcotest.test_case "qubits/bits" `Quick test_instr_qubits_bits;
          Alcotest.test_case "map/adjoint" `Quick test_instr_map_adjoint;
          Alcotest.test_case "well_formed" `Quick test_well_formed;
          Alcotest.test_case "to_string" `Quick test_instr_to_string;
          Alcotest.test_case "cond helpers" `Quick test_cond_helpers;
          Alcotest.test_case "cond to_string" `Quick test_cond_to_string;
        ] );
      ( "circ",
        [
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "builder roundtrip" `Quick test_builder_roundtrip;
          Alcotest.test_case "roles query" `Quick test_roles_query;
          Alcotest.test_case "concat/append" `Quick test_concat_append;
          Alcotest.test_case "map_instructions" `Quick test_map_instructions;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "gate count conventions" `Quick
            test_gate_count_conventions;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "t/cx counts" `Quick test_t_and_cx_counts;
          Alcotest.test_case "depth basics" `Quick test_depth_basics;
          Alcotest.test_case "classical ordering" `Quick
            test_depth_classical_ordering;
          Alcotest.test_case "parallel wires" `Quick test_depth_parallel;
          Alcotest.test_case "duration basics" `Quick test_duration_basics;
          Alcotest.test_case "duration parallel" `Quick test_duration_parallel;
          Alcotest.test_case "duration feedforward" `Quick
            test_duration_feedforward;
        ] );
      ( "draw/qasm",
        [
          Alcotest.test_case "draw" `Quick test_draw;
          Alcotest.test_case "draw wrapping" `Quick test_draw_wrapping;
          Alcotest.test_case "qasm" `Quick test_qasm;
        ] );
      ( "qasm_parser",
        [
          Alcotest.test_case "roundtrip dynamic" `Quick
            test_qasm_roundtrip_dynamic;
          Alcotest.test_case "parse basics" `Quick test_qasm_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_qasm_parse_errors;
          Alcotest.test_case "register width bound" `Quick
            test_qasm_register_bound;
          QCheck_alcotest.to_alcotest prop_qasm_roundtrip;
          QCheck_alcotest.to_alcotest prop_qasm_parser_total;
          QCheck_alcotest.to_alcotest prop_qasm_parse_errors_typed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_diagonal_pairs_commute; prop_adjoint_keeps_family ] );
    ]
