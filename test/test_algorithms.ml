open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Boolean_fun                                                        *)

let test_bf_create_eval () =
  let f = Algorithms.Boolean_fun.create ~arity:2 ~table:0b0110 in
  check_bool "f(0)" false (Algorithms.Boolean_fun.eval f 0);
  check_bool "f(1)" true (Algorithms.Boolean_fun.eval f 1);
  check_bool "f(3)" false (Algorithms.Boolean_fun.eval f 3);
  check_int "arity" 2 (Algorithms.Boolean_fun.arity f)

let test_bf_of_fun () =
  let f = Algorithms.Boolean_fun.of_fun ~arity:3 (fun k -> k mod 2 = 1) in
  check_int "ones" 4 (Algorithms.Boolean_fun.ones f);
  check_bool "balanced" true (Algorithms.Boolean_fun.is_balanced f);
  check_bool "not constant" false (Algorithms.Boolean_fun.is_constant f)

let test_bf_constant () =
  let zero = Algorithms.Boolean_fun.create ~arity:2 ~table:0 in
  let one = Algorithms.Boolean_fun.create ~arity:2 ~table:0b1111 in
  check_bool "const0" true (Algorithms.Boolean_fun.is_constant zero);
  check_bool "const1" true (Algorithms.Boolean_fun.is_constant one);
  check_bool "const0 not balanced" false (Algorithms.Boolean_fun.is_balanced zero)

let test_bf_arity_bound () =
  check_bool "arity 21 rejected" true
    (try
       ignore (Algorithms.Boolean_fun.create ~arity:21 ~table:0);
       false
     with Invalid_argument _ -> true)

let test_bf_equal () =
  let a = Algorithms.Boolean_fun.create ~arity:2 ~table:0b0110 in
  let b = Algorithms.Boolean_fun.of_fun ~arity:2 (fun k ->
      Sim.Bits.get k 0 <> Sim.Bits.get k 1)
  in
  check_bool "xor equal" true (Algorithms.Boolean_fun.equal a b)

(* ------------------------------------------------------------------ *)
(* Oracle                                                             *)

let test_all_oracles_implement_truth () =
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      check_bool (o.name ^ " truthful") true (Algorithms.Oracle.implements_truth o))
    (Algorithms.Dj.toffoli_free_oracles @ Algorithms.Dj_toffoli.oracles)

let test_oracle_toffoli_count () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "CARRY") in
  check_int "carry has 3 toffolis" 3 (Algorithms.Oracle.toffoli_count o);
  let p = Option.get (Algorithms.Dj.oracle_by_name "DJ_XOR") in
  check_int "xor has none" 0 (Algorithms.Oracle.toffoli_count p)

let test_oracle_make_validates () =
  check_bool "arity mismatch" true
    (try
       ignore
         (Algorithms.Oracle.make ~name:"bad" ~arity:3
            ~truth:(Algorithms.Boolean_fun.create ~arity:2 ~table:0)
            []);
       false
     with Invalid_argument _ -> true);
  check_bool "qubit out of range" true
    (try
       ignore
         (Algorithms.Oracle.make ~name:"bad" ~arity:1
            ~truth:(Algorithms.Boolean_fun.create ~arity:1 ~table:0)
            [ Instruction.Unitary (Instruction.app Gate.X 5) ]);
       false
     with Invalid_argument _ -> true)

let test_bad_oracle_detected () =
  (* an oracle whose instructions do not match its claimed truth *)
  let o =
    Algorithms.Oracle.make ~name:"lying" ~arity:1
      ~truth:(Algorithms.Boolean_fun.create ~arity:1 ~table:0b11)
      []
  in
  check_bool "detected" false (Algorithms.Oracle.implements_truth o)

(* ------------------------------------------------------------------ *)
(* Bv                                                                 *)

let test_bv_shapes () =
  let c = Algorithms.Bv.circuit "110" in
  check_int "qubits" 4 (Circ.num_qubits c);
  check_int "sparse gate count" 8 (Metrics.gate_count c);
  let t = Algorithms.Bv.circuit ~variant:`Textbook "110" in
  check_int "textbook gate count" 10 (Metrics.gate_count t)

let test_bv_validation () =
  check_bool "empty" true
    (try
       ignore (Algorithms.Bv.circuit "");
       false
     with Invalid_argument _ -> true);
  check_bool "non-binary" true
    (try
       ignore (Algorithms.Bv.circuit "10a");
       false
     with Invalid_argument _ -> true)

let test_bv_expected_outcome () =
  check_int "s=101" 0b101 (Algorithms.Bv.expected_outcome "101")

let bv_data_distribution variant s =
  let c = Algorithms.Bv.circuit ~variant s in
  let n = String.length s in
  Sim.Exact.measured_distribution ~measures:(List.init n (fun q -> (q, q))) c

let test_bv_recovers_hidden_string () =
  List.iter
    (fun s ->
      let d = bv_data_distribution `Sparse s in
      check_float ("sparse " ^ s) 1.
        (Sim.Dist.prob d (Algorithms.Bv.expected_outcome s));
      let dt = bv_data_distribution `Textbook s in
      check_float ("textbook " ^ s) 1.
        (Sim.Dist.prob dt (Algorithms.Bv.expected_outcome s)))
    [ "1"; "101"; "0010"; "1111" ]

let prop_bv_random_strings =
  QCheck2.Test.make ~name:"BV dynamic recovers random hidden strings" ~count:40
    QCheck2.Gen.(string_size ~gen:(oneofl [ '0'; '1' ]) (int_range 1 5))
    (fun s ->
      let c = Algorithms.Bv.circuit s in
      let r = Dqc.Transform.transform c in
      let d = Sim.Exact.register_distribution r.circuit in
      abs_float (Sim.Dist.prob d (Algorithms.Bv.expected_outcome s) -. 1.) < 1e-9)

let test_paper_benchmarks_list () =
  check_int "20 strings" 20 (List.length Algorithms.Bv.paper_benchmarks)

(* ------------------------------------------------------------------ *)
(* Dj                                                                 *)

let test_dj_circuit_shape () =
  let o = Option.get (Algorithms.Dj.oracle_by_name "DJ_XOR") in
  let c = Algorithms.Dj.circuit o in
  check_int "qubits" 3 (Circ.num_qubits c);
  check_int "gates" 8 (Metrics.gate_count c)

let test_dj_constant_vs_balanced () =
  let zero_prob name =
    Algorithms.Dj.zero_outcome_probability
      (Option.get (Algorithms.Dj.oracle_by_name name))
  in
  check_float "const0 -> all zero" 1. (zero_prob "DJ_CONST_0");
  check_float "const1 -> all zero" 1. (zero_prob "DJ_CONST_1");
  check_float "xor balanced -> never zero" 0. (zero_prob "DJ_XOR");
  check_float "pass balanced -> never zero" 0. (zero_prob "DJ_PASS_1")

let test_dj_expected_outcome () =
  let xor = Option.get (Algorithms.Dj.oracle_by_name "DJ_XOR") in
  (* balanced on both inputs: DJ returns |11> deterministically *)
  check_int "xor peak" 0b11 (Algorithms.Dj.expected_outcome xor)

let test_dj_oracle_catalog () =
  check_int "eight oracles" 8 (List.length Algorithms.Dj.toffoli_free_oracles);
  check_bool "lookup" true (Algorithms.Dj.oracle_by_name "DJ_XNOR" <> None);
  check_bool "missing" true (Algorithms.Dj.oracle_by_name "NOPE" = None)

let test_dj_classify () =
  let get n = Option.get (Algorithms.Dj.oracle_by_name n) in
  List.iter
    (fun dynamic ->
      check_bool "const0" true
        (Algorithms.Dj.classify ~dynamic (get "DJ_CONST_0") = `Constant);
      check_bool "const1" true
        (Algorithms.Dj.classify ~dynamic (get "DJ_CONST_1") = `Constant);
      check_bool "xor" true
        (Algorithms.Dj.classify ~dynamic (get "DJ_XOR") = `Balanced);
      check_bool "pass" true
        (Algorithms.Dj.classify ~dynamic (get "DJ_PASS_1") = `Balanced))
    [ true; false ]

let test_bv_recover_api () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("dynamic " ^ s) s (Algorithms.Bv.recover s);
      Alcotest.(check string) ("traditional " ^ s) s
        (Algorithms.Bv.recover ~dynamic:false s))
    [ "1"; "1011"; "001101" ]

(* ------------------------------------------------------------------ *)
(* Dj_toffoli                                                         *)

let test_dj_toffoli_catalog () =
  check_int "nine oracles" 9 (List.length Algorithms.Dj_toffoli.oracles);
  Alcotest.(check (list string)) "names"
    [ "AND"; "NAND"; "OR"; "NOR"; "IMPLY_1"; "IMPLY_2"; "INHIB_1"; "INHIB_2"; "CARRY" ]
    Algorithms.Dj_toffoli.names

let test_carry_is_majority () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "CARRY") in
  let f (a, b, c) =
    Algorithms.Boolean_fun.eval o.truth (a + (2 * b) + (4 * c))
  in
  check_bool "011" true (f (0, 1, 1));
  check_bool "101" true (f (1, 0, 1));
  check_bool "100" false (f (1, 0, 0));
  check_bool "111" true (f (1, 1, 1));
  check_bool "000" false (f (0, 0, 0))

(* ------------------------------------------------------------------ *)
(* Mct_bench / Oracle.synthesize                                      *)

let test_mct_suite_truthful () =
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      check_bool (o.name ^ " truthful") true
        (Algorithms.Oracle.implements_truth o))
    Algorithms.Mct_bench.suite

let test_mct_generators () =
  let and3 = Algorithms.Mct_bench.and_n 3 in
  check_int "and_3 single gate" 1 (List.length and3.instrs);
  check_bool "and_3 truth" true
    (Algorithms.Boolean_fun.eval and3.truth 7
    && not (Algorithms.Boolean_fun.eval and3.truth 6));
  let nand2 = Algorithms.Mct_bench.nand_n 2 in
  check_bool "nand_2 truthful" true (Algorithms.Oracle.implements_truth nand2);
  let or3 = Algorithms.Mct_bench.or_n 3 in
  check_bool "or_3 truthful" true (Algorithms.Oracle.implements_truth or3);
  check_int "or_3 monomials" 7 (List.length or3.instrs);
  check_bool "majority even arity rejected" true
    (try
       ignore (Algorithms.Mct_bench.majority_n 4);
       false
     with Invalid_argument _ -> true)

let test_anf () =
  let xor = Algorithms.Boolean_fun.create ~arity:2 ~table:0b0110 in
  Alcotest.(check (list (list int))) "xor anf" [ [ 0 ]; [ 1 ] ]
    (Algorithms.Oracle.anf_monomials xor);
  let and2 = Algorithms.Boolean_fun.create ~arity:2 ~table:0b1000 in
  Alcotest.(check (list (list int))) "and anf" [ [ 0; 1 ] ]
    (Algorithms.Oracle.anf_monomials and2);
  let const1 = Algorithms.Boolean_fun.create ~arity:2 ~table:0b1111 in
  Alcotest.(check (list (list int))) "const1 anf" [ [] ]
    (Algorithms.Oracle.anf_monomials const1)

let prop_synthesize_truthful =
  QCheck2.Test.make ~name:"synthesized oracles implement their table"
    ~count:80
    QCheck2.Gen.(pair (int_range 1 4) (int_bound 0xFFFF))
    (fun (arity, table) ->
      let truth = Algorithms.Boolean_fun.create ~arity ~table in
      Algorithms.Oracle.implements_truth
        (Algorithms.Oracle.synthesize ~name:"prop" truth))

(* ------------------------------------------------------------------ *)
(* Gf2 / Simon                                                        *)

let test_gf2_basics () =
  check_bool "dot" true (Gf2.dot 0b110 0b010);
  check_bool "dot even" false (Gf2.dot 0b110 0b110);
  check_int "rank full" 3 (Gf2.rank ~width:3 [ 0b001; 0b010; 0b100 ]);
  check_int "rank dependent" 2
    (Gf2.rank ~width:3 [ 0b011; 0b101; 0b110 ]);
  check_int "independent count" 2
    (List.length (Gf2.independent ~width:3 [ 0b011; 0b101; 0b110 ]))

let test_gf2_nullspace () =
  (* constraints orthogonal to s = 101: nullspace from two independent
     ones must be {101} *)
  let ns = Gf2.nullspace ~width:3 [ 0b010; 0b111 ] in
  Alcotest.(check (list int)) "unique solution" [ 0b101 ] ns;
  (* empty constraint set: whole space *)
  check_int "full nullspace" 3
    (List.length (Gf2.nullspace ~width:3 []));
  (* every nullspace vector is orthogonal to every constraint *)
  let constraints = [ 0b0110; 0b1010; 0b0001 ] in
  List.iter
    (fun v ->
      List.iter
        (fun c -> check_bool "orthogonal" false (Gf2.dot v c))
        constraints)
    (Gf2.nullspace ~width:4 constraints)

let test_simon_oracle_is_periodic () =
  (* f(x) = f(x XOR s) and 2-to-1, for a couple of secrets *)
  List.iter
    (fun s ->
      let n = String.length s in
      let secret = Sim.Bits.of_string s in
      let f x =
        (* evaluate the oracle on basis input x *)
        let st = Sim.Statevector.create (2 * n) ~num_bits:0 in
        for q = 0 to n - 1 do
          if Sim.Bits.get x q then Sim.Statevector.apply_gate st Gate.X q
        done;
        List.iter
          (fun (i : Instruction.t) ->
            match i with
            | Unitary a -> Sim.Statevector.apply_app st a
            | Conditioned _ | Measure _ | Reset _ | Barrier _ -> assert false)
          (Algorithms.Simon.oracle s);
        let probs = Sim.Statevector.probabilities st in
        let out = ref (-1) in
        Array.iteri (fun k p -> if p > 0.5 then out := k) probs;
        !out lsr n
      in
      for x = 0 to (1 lsl n) - 1 do
        check_int
          (Printf.sprintf "period %s at %d" s x)
          (f x)
          (f (x lxor secret))
      done)
    [ "11"; "101" ]

let test_simon_constraints_orthogonal () =
  let s = "1101" in
  let secret = Sim.Bits.of_string s in
  let ys = Algorithms.Simon.sample_constraints ~runs:40 ~dynamic:true s in
  List.iter
    (fun y -> check_bool "y.s = 0" false (Gf2.dot y secret))
    ys

let test_simon_recovers () =
  List.iter
    (fun s ->
      let expected = Some (Sim.Bits.of_string s) in
      check_bool ("traditional " ^ s) true
        (Algorithms.Simon.recover_secret ~dynamic:false s = expected);
      check_bool ("dynamic " ^ s) true
        (Algorithms.Simon.recover_secret ~dynamic:true s = expected))
    [ "11"; "101"; "1101" ]

let test_simon_dynamic_certified () =
  (* multiple answer qubits, still certified exact by sound mode *)
  let c = Algorithms.Simon.circuit "1011" in
  let r = Dqc.Transform.transform ~mode:`Sound c in
  check_int "n+1 qubits" 5 (Circ.num_qubits r.circuit);
  check_bool "equivalent" true (Dqc.Equivalence.equivalent c r)

let prop_simon_random_secrets =
  QCheck2.Test.make ~name:"Simon recovers random secrets dynamically" ~count:15
    QCheck2.Gen.(
      map
        (fun (n, v) ->
          let v = if v land ((1 lsl n) - 1) = 0 then 1 else v in
          Sim.Bits.to_string ~width:n v)
        (pair (int_range 2 5) (int_bound 31)))
    (fun s ->
      Algorithms.Simon.recover_secret ~dynamic:true s
      = Some (Sim.Bits.of_string s))

let test_simon_validation () =
  List.iter
    (fun s ->
      check_bool ("reject " ^ s) true
        (try
           ignore (Algorithms.Simon.circuit s);
           false
         with Invalid_argument _ -> true))
    [ ""; "000"; "1x0" ]

(* ------------------------------------------------------------------ *)
(* Reversible / Arithmetic                                            *)

(* run a gadget on a basis input and return the resulting basis state *)
let run_gadget ~n ~input instrs =
  let st = Sim.Statevector.create n ~num_bits:0 in
  for q = 0 to n - 1 do
    if Sim.Bits.get input q then Sim.Statevector.apply_gate st Gate.X q
  done;
  List.iter
    (fun (i : Instruction.t) ->
      match i with
      | Unitary a -> Sim.Statevector.apply_app st a
      | Conditioned _ | Measure _ | Reset _ | Barrier _ -> assert false)
    instrs;
  let probs = Sim.Statevector.probabilities st in
  let out = ref (-1) in
  Array.iteri (fun k p -> if p > 0.5 then out := k) probs;
  !out

let test_swap_fredkin () =
  check_int "swap" 0b01 (run_gadget ~n:2 ~input:0b10 (Algorithms.Reversible.swap 0 1));
  (* control off: no swap *)
  check_int "fredkin off" 0b010
    (run_gadget ~n:3 ~input:0b010
       (Algorithms.Reversible.fredkin ~control:0 ~t1:1 ~t2:2));
  (* control on: swap *)
  check_int "fredkin on" 0b101
    (run_gadget ~n:3 ~input:0b011
       (Algorithms.Reversible.fredkin ~control:0 ~t1:1 ~t2:2))

let test_peres () =
  (* a'=a, b'=a^b, c'=c^(ab) over all 8 inputs *)
  for x = 0 to 7 do
    let a = Sim.Bits.get x 0 and b = Sim.Bits.get x 1 and c = Sim.Bits.get x 2 in
    let expected =
      Sim.Bits.set (Sim.Bits.set x 1 (a <> b)) 2 (c <> (a && b))
    in
    check_int
      (Printf.sprintf "peres %d" x)
      expected
      (run_gadget ~n:3 ~input:x (Algorithms.Reversible.peres ~a:0 ~b:1 ~c:2))
  done

let test_adders () =
  (* half adder over the 4 inputs with clean carry *)
  for x = 0 to 3 do
    let a = Sim.Bits.get x 0 and b = Sim.Bits.get x 1 in
    let expected =
      Sim.Bits.set (Sim.Bits.set x 1 (a <> b)) 2 (a && b)
    in
    check_int
      (Printf.sprintf "half %d" x)
      expected
      (run_gadget ~n:3 ~input:x
         (Algorithms.Reversible.half_adder ~a:0 ~b:1 ~carry:2))
  done;
  (* full adder: sum in cin, carry-out correct, over all clean-carry inputs *)
  for x = 0 to 7 do
    let a = Sim.Bits.get x 0 and b = Sim.Bits.get x 1 and cin = Sim.Bits.get x 2 in
    let ones = List.length (List.filter Fun.id [ a; b; cin ]) in
    let out =
      run_gadget ~n:4 ~input:x
        (Algorithms.Reversible.full_adder ~a:0 ~b:1 ~cin:2 ~carry:3)
    in
    check_bool
      (Printf.sprintf "full sum %d" x)
      (ones mod 2 = 1)
      (Sim.Bits.get out 2);
    check_bool
      (Printf.sprintf "full carry %d" x)
      (ones >= 2)
      (Sim.Bits.get out 3)
  done

let test_cuccaro_exhaustive () =
  List.iter
    (fun n ->
      for x = 0 to (1 lsl n) - 1 do
        for y = 0 to (1 lsl n) - 1 do
          let sum, carry = Algorithms.Arithmetic.add_values ~n x y in
          check_int (Printf.sprintf "%d+%d mod" x y) ((x + y) mod (1 lsl n)) sum;
          check_bool (Printf.sprintf "%d+%d carry" x y) (x + y >= 1 lsl n) carry
        done
      done)
    [ 1; 2; 3 ]

let prop_cuccaro_4bit =
  QCheck2.Test.make ~name:"4-bit cuccaro adder" ~count:40
    QCheck2.Gen.(pair (int_bound 15) (int_bound 15))
    (fun (x, y) ->
      let sum, carry = Algorithms.Arithmetic.add_values ~n:4 x y in
      sum = (x + y) mod 16 && carry = (x + y >= 16))

let test_adder_shape () =
  let c, layout = Algorithms.Arithmetic.adder 3 in
  check_int "qubits" 8 (Circ.num_qubits c);
  check_int "carry out role answer" 7 layout.Algorithms.Arithmetic.carry_out;
  check_bool "answer role" true (Circ.role c 7 = Circ.Answer);
  check_bool "n bounds" true
    (try
       ignore (Algorithms.Arithmetic.adder 0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Qpe                                                                *)

let test_qpe_exact_phase () =
  List.iter
    (fun (bits, num) ->
      let phase = float_of_int num /. float_of_int (1 lsl bits) in
      let dt = Algorithms.Qpe.distribution `Traditional ~bits ~phase in
      let di = Algorithms.Qpe.distribution `Iterative ~bits ~phase in
      check_float "traditional deterministic" 1. (Sim.Dist.prob dt num);
      check_float "iterative deterministic" 1. (Sim.Dist.prob di num))
    [ (2, 3); (3, 5); (4, 9); (5, 21) ]

let test_qpe_forms_agree () =
  (* the iterative form defers nothing: for ANY phase the exact
     distributions coincide (deferred measurement principle) *)
  List.iter
    (fun phase ->
      let dt = Algorithms.Qpe.distribution `Traditional ~bits:4 ~phase in
      let di = Algorithms.Qpe.distribution `Iterative ~bits:4 ~phase in
      check_float ("tv at phase " ^ string_of_float phase) 0.
        (Sim.Dist.tv_distance dt di))
    [ 0.1; 0.3; 0.55; 0.9; 0.137 ]

let test_qpe_peak_quality () =
  (* the best t-bit estimate carries the textbook >= 4/pi^2 of the mass *)
  let phase = 0.3 in
  let d = Algorithms.Qpe.distribution `Iterative ~bits:4 ~phase in
  let best = Algorithms.Qpe.best_estimate ~bits:4 ~phase in
  check_bool "peak mass" true (Sim.Dist.prob d best > 0.4);
  check_int "best estimate of 0.3 at 4 bits" 5 best

let test_qpe_shapes () =
  let c = Algorithms.Qpe.iterative ~bits:3 ~phase:0.25 in
  check_int "two qubits" 2 (Circ.num_qubits c);
  check_int "three digits" 3 (Circ.num_bits c);
  let s = Metrics.stats c in
  check_int "three measurements" 3 s.Metrics.measure;
  check_int "corrections are conditioned" 3 s.Metrics.conditioned;
  check_bool "bits range" true
    (try
       ignore (Algorithms.Qpe.traditional ~bits:0 ~phase:0.5);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Grover                                                             *)

let test_grover_iterations () =
  check_int "n=2" 1 (Algorithms.Grover.optimal_iterations 2);
  check_int "n=3" 2 (Algorithms.Grover.optimal_iterations 3);
  check_int "n=4" 3 (Algorithms.Grover.optimal_iterations 4)

let test_grover_success () =
  check_float "n=2 exact" 1. (Algorithms.Grover.success_probability ~n:2 ~marked:3);
  check_bool "n=3 high" true
    (Algorithms.Grover.success_probability ~n:3 ~marked:5 > 0.9);
  check_bool "n=4 high" true
    (Algorithms.Grover.success_probability ~n:4 ~marked:11 > 0.9)

let test_grover_validation () =
  check_bool "marked range" true
    (try
       ignore (Algorithms.Grover.circuit ~n:2 ~marked:7);
       false
     with Invalid_argument _ -> true);
  check_bool "n range" true
    (try
       ignore (Algorithms.Grover.circuit ~n:1 ~marked:0);
       false
     with Invalid_argument _ -> true)

let test_grover_contains_mct () =
  let c = Algorithms.Grover.circuit ~n:4 ~marked:3 in
  let has_mct =
    List.exists
      (fun (i : Instruction.t) ->
        match i with
        | Unitary { controls; _ } -> List.length controls >= 3
        | Conditioned _ | Measure _ | Reset _ | Barrier _ -> false)
      (Circ.instructions c)
  in
  check_bool "has multi-control" true has_mct;
  (* reduce and re-check success probability is preserved *)
  let reduced = Decompose.Pass.reduce_mct c in
  let d = Sim.Exact.measure_all_distribution reduced in
  let marginal =
    Sim.Dist.marginal ~bits:[ 0; 1; 2; 3 ] d
  in
  check_bool "reduced still succeeds" true (Sim.Dist.prob marginal 3 > 0.9)

let () =
  Alcotest.run "algorithms"
    [
      ( "boolean_fun",
        [
          Alcotest.test_case "create/eval" `Quick test_bf_create_eval;
          Alcotest.test_case "of_fun" `Quick test_bf_of_fun;
          Alcotest.test_case "constant" `Quick test_bf_constant;
          Alcotest.test_case "arity bound" `Quick test_bf_arity_bound;
          Alcotest.test_case "equal" `Quick test_bf_equal;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "all truthful" `Quick
            test_all_oracles_implement_truth;
          Alcotest.test_case "toffoli count" `Quick test_oracle_toffoli_count;
          Alcotest.test_case "make validates" `Quick test_oracle_make_validates;
          Alcotest.test_case "bad oracle detected" `Quick test_bad_oracle_detected;
        ] );
      ( "bv",
        [
          Alcotest.test_case "shapes" `Quick test_bv_shapes;
          Alcotest.test_case "validation" `Quick test_bv_validation;
          Alcotest.test_case "expected outcome" `Quick test_bv_expected_outcome;
          Alcotest.test_case "recovers hidden string" `Quick
            test_bv_recovers_hidden_string;
          Alcotest.test_case "paper list" `Quick test_paper_benchmarks_list;
          QCheck_alcotest.to_alcotest prop_bv_random_strings;
        ] );
      ( "dj",
        [
          Alcotest.test_case "shape" `Quick test_dj_circuit_shape;
          Alcotest.test_case "constant vs balanced" `Quick
            test_dj_constant_vs_balanced;
          Alcotest.test_case "expected outcome" `Quick test_dj_expected_outcome;
          Alcotest.test_case "catalog" `Quick test_dj_oracle_catalog;
          Alcotest.test_case "classify" `Quick test_dj_classify;
          Alcotest.test_case "bv recover api" `Quick test_bv_recover_api;
        ] );
      ( "dj_toffoli",
        [
          Alcotest.test_case "catalog" `Quick test_dj_toffoli_catalog;
          Alcotest.test_case "carry majority" `Quick test_carry_is_majority;
        ] );
      ( "mct_bench",
        [
          Alcotest.test_case "suite truthful" `Quick test_mct_suite_truthful;
          Alcotest.test_case "generators" `Quick test_mct_generators;
          Alcotest.test_case "anf" `Quick test_anf;
          QCheck_alcotest.to_alcotest prop_synthesize_truthful;
        ] );
      ( "gf2/simon",
        [
          Alcotest.test_case "gf2 basics" `Quick test_gf2_basics;
          Alcotest.test_case "gf2 nullspace" `Quick test_gf2_nullspace;
          Alcotest.test_case "oracle periodic" `Quick test_simon_oracle_is_periodic;
          Alcotest.test_case "constraints orthogonal" `Quick
            test_simon_constraints_orthogonal;
          Alcotest.test_case "recovers secrets" `Slow test_simon_recovers;
          Alcotest.test_case "dynamic certified" `Quick
            test_simon_dynamic_certified;
          Alcotest.test_case "validation" `Quick test_simon_validation;
          QCheck_alcotest.to_alcotest prop_simon_random_secrets;
        ] );
      ( "reversible/arithmetic",
        [
          Alcotest.test_case "swap/fredkin" `Quick test_swap_fredkin;
          Alcotest.test_case "peres" `Quick test_peres;
          Alcotest.test_case "adders" `Quick test_adders;
          Alcotest.test_case "cuccaro exhaustive" `Slow test_cuccaro_exhaustive;
          Alcotest.test_case "adder shape" `Quick test_adder_shape;
          QCheck_alcotest.to_alcotest prop_cuccaro_4bit;
        ] );
      ( "qpe",
        [
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~name:"qpe forms agree on random phases"
               ~count:25
               QCheck2.Gen.(float_bound_inclusive 1.)
               (fun phase ->
                 Sim.Dist.tv_distance
                   (Algorithms.Qpe.distribution `Traditional ~bits:3 ~phase)
                   (Algorithms.Qpe.distribution `Iterative ~bits:3 ~phase)
                 < 1e-9));
          Alcotest.test_case "exact phases" `Quick test_qpe_exact_phase;
          Alcotest.test_case "forms agree" `Quick test_qpe_forms_agree;
          Alcotest.test_case "peak quality" `Quick test_qpe_peak_quality;
          Alcotest.test_case "shapes" `Quick test_qpe_shapes;
        ] );
      ( "grover",
        [
          Alcotest.test_case "iterations" `Quick test_grover_iterations;
          Alcotest.test_case "success" `Slow test_grover_success;
          Alcotest.test_case "validation" `Quick test_grover_validation;
          Alcotest.test_case "mct reduction" `Slow test_grover_contains_mct;
        ] );
    ]
