open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let u ?controls g t = Instruction.Unitary (Instruction.app ?controls g t)

let circuit_of ~n instrs =
  Circ.create ~roles:(Array.make n Circ.Data) ~num_bits:0 instrs

let toffoli_ref ~n ~c1 ~c2 ~target =
  circuit_of ~n [ u ~controls:[ c1; c2 ] Gate.X target ]

(* ------------------------------------------------------------------ *)
(* Clifford_t                                                         *)

let test_clifford_t_toffoli () =
  let direct = toffoli_ref ~n:3 ~c1:0 ~c2:1 ~target:2 in
  let dec = circuit_of ~n:3 (Decompose.Clifford_t.toffoli ~c1:0 ~c2:1 ~target:2) in
  check_bool "exact" true (Sim.Unitary.equivalent ~up_to_phase:false direct dec);
  check_int "15 gates" 15 (List.length (Decompose.Clifford_t.toffoli ~c1:0 ~c2:1 ~target:2))

let test_clifford_t_toffoli_permuted () =
  let direct = toffoli_ref ~n:3 ~c1:2 ~c2:0 ~target:1 in
  let dec = circuit_of ~n:3 (Decompose.Clifford_t.toffoli ~c1:2 ~c2:0 ~target:1) in
  check_bool "permuted" true (Sim.Unitary.equivalent ~up_to_phase:false direct dec)

let test_cv_cvdg () =
  let cv_direct = circuit_of ~n:2 [ u ~controls:[ 0 ] Gate.V 1 ] in
  let cv_dec = circuit_of ~n:2 (Decompose.Clifford_t.cv ~control:0 ~target:1) in
  check_bool "cv exact" true
    (Sim.Unitary.equivalent ~up_to_phase:false cv_direct cv_dec);
  let cvdg_direct = circuit_of ~n:2 [ u ~controls:[ 0 ] Gate.Vdg 1 ] in
  let cvdg_dec = circuit_of ~n:2 (Decompose.Clifford_t.cvdg ~control:0 ~target:1) in
  check_bool "cvdg exact" true
    (Sim.Unitary.equivalent ~up_to_phase:false cvdg_direct cvdg_dec);
  check_int "7 gates" 7 (List.length (Decompose.Clifford_t.cv ~control:0 ~target:1))

let prop_cphase =
  QCheck2.Test.make ~name:"cphase(theta) decomposition exact" ~count:50
    QCheck2.Gen.(float_bound_inclusive 6.28)
    (fun theta ->
      let direct = circuit_of ~n:2 [ u ~controls:[ 0 ] (Gate.Phase theta) 1 ] in
      let dec = circuit_of ~n:2 (Decompose.Clifford_t.cphase ~theta ~control:0 ~target:1) in
      Sim.Unitary.equivalent ~up_to_phase:false direct dec)

(* ------------------------------------------------------------------ *)
(* Barenco                                                            *)

let test_barenco () =
  let direct = toffoli_ref ~n:3 ~c1:0 ~c2:1 ~target:2 in
  let dec = circuit_of ~n:3 (Decompose.Barenco.toffoli ~c1:0 ~c2:1 ~target:2) in
  check_bool "exact" true (Sim.Unitary.equivalent ~up_to_phase:false direct dec);
  check_int "5 gates" 5 (List.length (Decompose.Barenco.toffoli ~c1:0 ~c2:1 ~target:2))

let test_barenco_expanded () =
  let direct = toffoli_ref ~n:3 ~c1:0 ~c2:1 ~target:2 in
  let dec =
    Decompose.Pass.expand_cv (circuit_of ~n:3 (Decompose.Barenco.toffoli ~c1:0 ~c2:1 ~target:2))
  in
  check_bool "clifford+t only" true
    (List.for_all
       (fun (i : Instruction.t) ->
         match i with
         | Unitary { gate; _ } ->
             Gate.is_clifford_t gate
             || (match gate with Gate.Phase _ -> true | _ -> false)
         | Conditioned _ | Measure _ | Reset _ | Barrier _ -> false)
       (Circ.instructions dec));
  check_bool "exact" true (Sim.Unitary.equivalent ~up_to_phase:false direct dec)

(* ------------------------------------------------------------------ *)
(* Ancilla_unroll                                                     *)

let run_unitaries ~n ~input instrs =
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
  Sim.Statevector.amplitudes st

(* On basis input |c1 c2 t> with ancilla |0>, the unrolled netlist must
   act as Toffoli and return the ancilla to |0>. *)
let test_unroll_basis () =
  let instrs = Decompose.Ancilla_unroll.toffoli ~c1:0 ~c2:1 ~target:2 ~ancilla:3 in
  let ok = ref true in
  for x = 0 to 7 do
    let amps = run_unitaries ~n:4 ~input:x instrs in
    let t_out = Sim.Bits.get x 2 <> (Sim.Bits.get x 0 && Sim.Bits.get x 1) in
    let expected = Sim.Bits.set x 2 t_out in
    let amp = Linalg.Cvec.get amps expected in
    if not (Linalg.Complex_ext.approx_equal amp Complex.one) then ok := false
  done;
  check_bool "all basis inputs" true !ok

let test_unroll_shape () =
  let instrs = Decompose.Ancilla_unroll.toffoli ~c1:0 ~c2:1 ~target:2 ~ancilla:3 in
  check_int "7 gates (with uncompute)" 7 (List.length instrs)

let test_morph () =
  check_int "fresh parity = 2 CX" 2
    (List.length (Decompose.Ancilla_unroll.morph ~parity:[] ~controls:[ 0; 1 ] ~ancilla:3));
  check_int "shared control drops out" 2
    (List.length
       (Decompose.Ancilla_unroll.morph ~parity:[ 0; 1 ] ~controls:[ 0; 2 ] ~ancilla:3));
  check_int "same parity = nothing" 0
    (List.length
       (Decompose.Ancilla_unroll.morph ~parity:[ 0; 1 ] ~controls:[ 1; 0 ] ~ancilla:3));
  check_int "release" 2
    (List.length (Decompose.Ancilla_unroll.release ~parity:[ 0; 1 ] ~ancilla:3))

let test_shared_pair () =
  (* Lemma 1 / Eqn 5: two Toffolis on the same target via one ancilla *)
  let i1, parity =
    Decompose.Ancilla_unroll.toffoli_shared ~parity:[] ~c1:0 ~c2:1 ~target:3 ~ancilla:4
  in
  let i2, parity' =
    Decompose.Ancilla_unroll.toffoli_shared ~parity ~c1:0 ~c2:2 ~target:3 ~ancilla:4
  in
  let all = i1 @ i2 @ Decompose.Ancilla_unroll.release ~parity:parity' ~ancilla:4 in
  let direct =
    [ u ~controls:[ 0; 1 ] Gate.X 3; u ~controls:[ 0; 2 ] Gate.X 3 ]
  in
  let agree = ref true in
  for x = 0 to 15 do
    let a = run_unitaries ~n:5 ~input:x all in
    let b = run_unitaries ~n:5 ~input:x direct in
    if not (Linalg.Cvec.approx_equal a b) then agree := false
  done;
  check_bool "pair agrees with two Toffolis" true !agree;
  let fresh_len =
    2 * List.length (Decompose.Ancilla_unroll.toffoli ~c1:0 ~c2:1 ~target:3 ~ancilla:4)
  in
  check_bool "sharing is smaller" true (List.length all < fresh_len)

(* ------------------------------------------------------------------ *)
(* Mct                                                                *)

let test_ancillas_needed () =
  check_int "n=2" 0 (Decompose.Mct.ancillas_needed 2);
  check_int "n=3" 1 (Decompose.Mct.ancillas_needed 3);
  check_int "n=5" 3 (Decompose.Mct.ancillas_needed 5)

let mct_matches_direct ~controls_count =
  let controls = List.init controls_count (fun k -> k) in
  let target = controls_count in
  let ancillas =
    List.init (Decompose.Mct.ancillas_needed controls_count) (fun k ->
        controls_count + 1 + k)
  in
  let n = controls_count + 1 + List.length ancillas in
  let instrs = Decompose.Mct.v_chain ~controls ~target ~ancillas in
  let ok = ref true in
  for x = 0 to (1 lsl (controls_count + 1)) - 1 do
    let amps = run_unitaries ~n ~input:x instrs in
    let all_ones = List.for_all (fun q -> Sim.Bits.get x q) controls in
    let expected =
      if all_ones then Sim.Bits.set x target (not (Sim.Bits.get x target))
      else x
    in
    let amp = Linalg.Cvec.get amps expected in
    if not (Linalg.Complex_ext.approx_equal amp Complex.one) then ok := false
  done;
  !ok

let test_v_chain () =
  check_bool "0 controls = X" true (mct_matches_direct ~controls_count:0);
  check_bool "1 control = CX" true (mct_matches_direct ~controls_count:1);
  check_bool "2 controls = CCX" true (mct_matches_direct ~controls_count:2);
  check_bool "3 controls" true (mct_matches_direct ~controls_count:3);
  check_bool "4 controls" true (mct_matches_direct ~controls_count:4);
  check_bool "5 controls" true (mct_matches_direct ~controls_count:5)

let dirty_matches_direct ~controls_count =
  let controls = List.init controls_count (fun k -> k) in
  let target = controls_count in
  let borrowed =
    List.init (controls_count - 2) (fun k -> controls_count + 1 + k)
  in
  let n = controls_count + 1 + List.length borrowed in
  let instrs = Decompose.Mct.dirty_staircase ~controls ~target ~borrowed in
  let ok = ref true in
  (* every basis input, including arbitrary (dirty) borrowed values *)
  for x = 0 to (1 lsl n) - 1 do
    let amps = run_unitaries ~n ~input:x instrs in
    let all_ones = List.for_all (fun q -> Sim.Bits.get x q) controls in
    let expected =
      if all_ones then Sim.Bits.set x target (not (Sim.Bits.get x target))
      else x
    in
    let amp = Linalg.Cvec.get amps expected in
    if not (Linalg.Complex_ext.approx_equal amp Complex.one) then ok := false
  done;
  !ok

let test_dirty_staircase () =
  check_bool "3 controls" true (dirty_matches_direct ~controls_count:3);
  check_bool "4 controls" true (dirty_matches_direct ~controls_count:4);
  check_bool "5 controls" true (dirty_matches_direct ~controls_count:5)

let test_dirty_staircase_errors () =
  check_bool "too few controls" true
    (try
       ignore
         (Decompose.Mct.dirty_staircase ~controls:[ 0; 1 ] ~target:2
            ~borrowed:[]);
       false
     with Invalid_argument _ -> true);
  check_bool "too few borrowed" true
    (try
       ignore
         (Decompose.Mct.dirty_staircase ~controls:[ 0; 1; 2 ] ~target:3
            ~borrowed:[]);
       false
     with Invalid_argument _ -> true)

let test_v_chain_errors () =
  Alcotest.check_raises "too few ancillas"
    (Invalid_argument "Mct.v_chain: not enough ancillas") (fun () ->
      ignore (Decompose.Mct.v_chain ~controls:[ 0; 1; 2 ] ~target:3 ~ancillas:[]));
  Alcotest.check_raises "repeated qubit"
    (Invalid_argument "Mct.v_chain: repeated qubit") (fun () ->
      ignore (Decompose.Mct.v_chain ~controls:[ 0; 1; 2 ] ~target:2 ~ancillas:[ 4 ]))

(* ------------------------------------------------------------------ *)
(* Pass                                                               *)

let two_toffolis =
  (* data controls, answer target - the shape of the DJ oracles *)
  Circ.create
    ~roles:[| Circ.Data; Circ.Data; Circ.Data; Circ.Answer |]
    ~num_bits:0
    [
      u Gate.H 0;
      u ~controls:[ 0; 1 ] Gate.X 3;
      u ~controls:[ 0; 2 ] Gate.X 3;
      u Gate.H 0;
    ]

let test_pass_clifford_barenco () =
  List.iter
    (fun scheme ->
      let out = Decompose.Pass.substitute_toffoli scheme two_toffolis in
      check_bool "equivalent" true (Sim.Unitary.equivalent two_toffolis out);
      check_bool "no toffoli left" true
        (List.for_all
           (fun (i : Instruction.t) ->
             match i with
             | Unitary { controls; _ } -> List.length controls <= 1
             | Conditioned _ | Measure _ | Reset _ | Barrier _ -> true)
           (Circ.instructions out)))
    [ `Clifford_t; `Barenco ]

let count_ancillas c = List.length (Circ.qubits_with_role c Circ.Ancilla)

let test_pass_ancilla_sharing () =
  let fresh = Decompose.Pass.substitute_toffoli (`Ancilla `Fresh) two_toffolis in
  let per_target = Decompose.Pass.substitute_toffoli (`Ancilla `Per_target) two_toffolis in
  let global = Decompose.Pass.substitute_toffoli (`Ancilla `Global) two_toffolis in
  check_int "fresh: one ancilla per toffoli" 2 (count_ancillas fresh);
  check_int "per-target: one (same target)" 1 (count_ancillas per_target);
  check_int "global: one" 1 (count_ancillas global);
  check_bool "per-target smaller than fresh" true
    (Metrics.gate_count per_target < Metrics.gate_count fresh)

let test_pass_ancilla_semantics () =
  List.iter
    (fun sharing ->
      let out = Decompose.Pass.substitute_toffoli (`Ancilla sharing) two_toffolis in
      let measures = List.init 4 (fun q -> (q, q)) in
      let d_ref = Sim.Exact.measured_distribution ~measures two_toffolis in
      let d_out = Sim.Exact.measured_distribution ~measures out in
      check_bool "distribution preserved" true
        (Sim.Dist.approx_equal d_ref d_out))
    [ `Fresh; `Per_target; `Global ]

let test_reduce_mct () =
  let c = circuit_of ~n:5 [ u ~controls:[ 0; 1; 2; 3 ] Gate.X 4 ] in
  let out = Decompose.Pass.reduce_mct c in
  check_bool "only <=2 controls" true
    (List.for_all
       (fun (i : Instruction.t) ->
         match i with
         | Unitary { controls; _ } -> List.length controls <= 2
         | Conditioned _ | Measure _ | Reset _ | Barrier _ -> true)
       (Circ.instructions out));
  check_int "2 clean ancillas appended" 2 (count_ancillas out)

let test_pass_rejects () =
  let bad = circuit_of ~n:3 [ u ~controls:[ 0; 1 ] Gate.Z 2 ] in
  check_bool "ccz rejected" true
    (try
       ignore (Decompose.Pass.substitute_toffoli `Barenco bad);
       false
     with Invalid_argument _ -> true)

let test_pass_no_toffoli_unchanged () =
  let c = circuit_of ~n:2 [ u Gate.H 0; u ~controls:[ 0 ] Gate.X 1 ] in
  check_bool "clifford_t identity" true
    (Circ.equal c (Decompose.Pass.substitute_toffoli `Clifford_t c));
  check_bool "barenco identity" true
    (Circ.equal c (Decompose.Pass.substitute_toffoli `Barenco c))

let test_expand_cv_leaves_conditioned () =
  let roles = [| Circ.Data |] in
  let c =
    Circ.create ~roles ~num_bits:1
      [ Instruction.Conditioned (Instruction.cond_bit 0 true, Instruction.app Gate.V 0) ]
  in
  check_bool "conditioned V untouched" true
    (Circ.equal c (Decompose.Pass.expand_cv c))

(* ------------------------------------------------------------------ *)
(* Peephole                                                           *)

let test_peephole_cancels () =
  let c = circuit_of ~n:2 [ u Gate.H 0; u Gate.H 0; u Gate.X 1 ] in
  let out = Decompose.Peephole.cancel_inverses c in
  check_int "hh removed" 1 (List.length (Circ.instructions out));
  check_int "removed_count" 2 (Decompose.Peephole.removed_count c)

let test_peephole_inverse_pair () =
  let c = circuit_of ~n:1 [ u Gate.T 0; u Gate.Tdg 0 ] in
  check_int "t tdg removed" 0
    (List.length (Circ.instructions (Decompose.Peephole.cancel_inverses c)))

let test_peephole_blocked () =
  let c = circuit_of ~n:1 [ u Gate.H 0; u Gate.X 0; u Gate.H 0 ] in
  check_int "blocked by X" 3
    (List.length (Circ.instructions (Decompose.Peephole.cancel_inverses c)))

let test_peephole_across_disjoint () =
  let c = circuit_of ~n:2 [ u Gate.H 0; u Gate.X 1; u Gate.H 0 ] in
  check_int "cancel across disjoint wire" 1
    (List.length (Circ.instructions (Decompose.Peephole.cancel_inverses c)))

let test_peephole_cascade () =
  let c = circuit_of ~n:1 [ u Gate.T 0; u Gate.H 0; u Gate.H 0; u Gate.Tdg 0 ] in
  check_int "cascade to empty" 0
    (List.length (Circ.instructions (Decompose.Peephole.cancel_inverses c)))

let test_peephole_conditioned () =
  let roles = [| Circ.Data |] in
  let cnd = Instruction.cond_bit 0 true in
  let mk instrs = Circ.create ~roles ~num_bits:1 instrs in
  let pair =
    mk
      [
        Instruction.Conditioned (cnd, Instruction.app Gate.X 0);
        Instruction.Conditioned (cnd, Instruction.app Gate.X 0);
      ]
  in
  check_int "conditioned pair cancels" 0
    (List.length (Circ.instructions (Decompose.Peephole.cancel_inverses pair)));
  let blocked =
    mk
      [
        Instruction.Conditioned (cnd, Instruction.app Gate.X 0);
        Instruction.Measure { qubit = 0; bit = 0 };
        Instruction.Conditioned (cnd, Instruction.app Gate.X 0);
      ]
  in
  check_int "measure on qubit+bit blocks" 3
    (List.length (Circ.instructions (Decompose.Peephole.cancel_inverses blocked)))

let test_merge_rotations () =
  let mk instrs = circuit_of ~n:2 instrs in
  let merged c = Circ.instructions (Decompose.Peephole.merge_rotations c) in
  check_int "rz pair merges" 1
    (List.length (merged (mk [ u (Gate.Rz 0.3) 0; u (Gate.Rz 0.4) 0 ])));
  check_int "cancels to identity" 0
    (List.length (merged (mk [ u (Gate.Rz 0.5) 0; u (Gate.Rz (-0.5)) 0 ])));
  check_int "full turn drops" 0
    (List.length
       (merged (mk [ u (Gate.Rz Float.pi) 0; u (Gate.Rz Float.pi) 0 ])));
  check_int "blocked by other wire gate" 3
    (List.length
       (merged (mk [ u (Gate.Rz 0.3) 0; u Gate.H 0; u (Gate.Rz 0.4) 0 ])));
  check_int "across disjoint wire" 2
    (List.length
       (merged (mk [ u (Gate.Rz 0.3) 0; u Gate.H 1; u (Gate.Rz 0.4) 0 ])));
  check_int "phase family separate" 2
    (List.length
       (merged (mk [ u (Gate.Rz 0.3) 0; u (Gate.Phase 0.4) 0 ])))

let prop_merge_preserves_unitary =
  QCheck2.Test.make ~name:"rotation merging preserves circuit unitary"
    ~count:60
    QCheck2.Gen.(
      list_size (int_range 0 15)
        (oneof
           [
             map2
               (fun a q -> u (Gate.Rz a) q)
               (float_bound_inclusive 6.4) (int_range 0 1);
             map2
               (fun a q -> u (Gate.Phase a) q)
               (float_bound_inclusive 6.4) (int_range 0 1);
             map (fun q -> u Gate.H q) (int_range 0 1);
           ]))
    (fun instrs ->
      let c = circuit_of ~n:2 instrs in
      Sim.Unitary.equivalent c (Decompose.Peephole.merge_rotations c))

let prop_peephole_preserves_unitary =
  Testkit.circuit_test ~name:"peephole preserves circuit unitary" ~count:100
    ~max_qubits:3 ~max_instrs:20 (fun c ->
      let c = Testkit.unitary_part c in
      Sim.Unitary.equivalent ~up_to_phase:false c
        (Decompose.Peephole.cancel_inverses c))

(* Every decomposition output must carry no error-severity lint
   diagnostic: in particular the ancilla-backed schemes must provably
   or at least plausibly return their scratch qubits to |0>. *)
let test_substitutions_lint_clean () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "CARRY") in
  let dj = Algorithms.Dj.circuit o in
  List.iter
    (fun (label, scheme) ->
      let out = Decompose.Pass.substitute_toffoli scheme dj in
      let r = Lint.run out in
      Alcotest.(check int) (label ^ ": error diagnostics") 0 r.Lint.errors)
    [
      ("clifford_t", `Clifford_t);
      ("barenco", `Barenco);
      ("ancilla fresh", `Ancilla `Fresh);
      ("ancilla per-target", `Ancilla `Per_target);
      ("ancilla global", `Ancilla `Global);
    ]

let () =
  Alcotest.run "decompose"
    [
      ( "clifford_t",
        [
          Alcotest.test_case "toffoli" `Quick test_clifford_t_toffoli;
          Alcotest.test_case "toffoli permuted" `Quick
            test_clifford_t_toffoli_permuted;
          Alcotest.test_case "cv/cvdg" `Quick test_cv_cvdg;
          QCheck_alcotest.to_alcotest prop_cphase;
        ] );
      ( "barenco",
        [
          Alcotest.test_case "toffoli" `Quick test_barenco;
          Alcotest.test_case "expanded" `Quick test_barenco_expanded;
        ] );
      ( "ancilla_unroll",
        [
          Alcotest.test_case "basis action" `Quick test_unroll_basis;
          Alcotest.test_case "shape" `Quick test_unroll_shape;
          Alcotest.test_case "morph" `Quick test_morph;
          Alcotest.test_case "lemma 1 pair" `Quick test_shared_pair;
        ] );
      ( "mct",
        [
          Alcotest.test_case "ancillas needed" `Quick test_ancillas_needed;
          Alcotest.test_case "v-chain" `Slow test_v_chain;
          Alcotest.test_case "errors" `Quick test_v_chain_errors;
          Alcotest.test_case "dirty staircase" `Slow test_dirty_staircase;
          Alcotest.test_case "dirty errors" `Quick test_dirty_staircase_errors;
        ] );
      ( "pass",
        [
          Alcotest.test_case "clifford/barenco" `Quick test_pass_clifford_barenco;
          Alcotest.test_case "ancilla sharing" `Quick test_pass_ancilla_sharing;
          Alcotest.test_case "ancilla semantics" `Quick
            test_pass_ancilla_semantics;
          Alcotest.test_case "reduce mct" `Quick test_reduce_mct;
          Alcotest.test_case "rejects non-X" `Quick test_pass_rejects;
          Alcotest.test_case "no toffoli unchanged" `Quick
            test_pass_no_toffoli_unchanged;
          Alcotest.test_case "expand leaves conditioned" `Quick
            test_expand_cv_leaves_conditioned;
          Alcotest.test_case "substitutions lint clean" `Quick
            test_substitutions_lint_clean;
        ] );
      ( "peephole",
        [
          Alcotest.test_case "cancels" `Quick test_peephole_cancels;
          Alcotest.test_case "inverse pair" `Quick test_peephole_inverse_pair;
          Alcotest.test_case "blocked" `Quick test_peephole_blocked;
          Alcotest.test_case "across disjoint" `Quick
            test_peephole_across_disjoint;
          Alcotest.test_case "cascade" `Quick test_peephole_cascade;
          Alcotest.test_case "conditioned" `Quick test_peephole_conditioned;
          Alcotest.test_case "merge rotations" `Quick test_merge_rotations;
          QCheck_alcotest.to_alcotest prop_peephole_preserves_unitary;
          QCheck_alcotest.to_alcotest prop_merge_preserves_unitary;
        ] );
    ]
