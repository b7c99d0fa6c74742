open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let u ?controls g t = Instruction.Unitary (Instruction.app ?controls g t)

(* ------------------------------------------------------------------ *)
(* Coupling                                                           *)

let test_line () =
  let l = Transpile.Coupling.line 4 in
  check_int "qubits" 4 (Transpile.Coupling.num_qubits l);
  check_bool "0-1" true (Transpile.Coupling.adjacent l 0 1);
  check_bool "0-2" false (Transpile.Coupling.adjacent l 0 2);
  check_int "distance ends" 3 (Transpile.Coupling.distance l 0 3);
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ]
    (Transpile.Coupling.shortest_path l 0 3)

let test_ring () =
  let r = Transpile.Coupling.ring 5 in
  check_bool "wraparound" true (Transpile.Coupling.adjacent r 0 4);
  check_int "short way round" 2 (Transpile.Coupling.distance r 0 3);
  check_bool "ring too small" true
    (try
       ignore (Transpile.Coupling.ring 2);
       false
     with Invalid_argument _ -> true)

let test_grid () =
  let g = Transpile.Coupling.grid ~rows:2 ~cols:3 in
  check_int "qubits" 6 (Transpile.Coupling.num_qubits g);
  check_bool "horizontal" true (Transpile.Coupling.adjacent g 0 1);
  check_bool "vertical" true (Transpile.Coupling.adjacent g 0 3);
  check_bool "diagonal" false (Transpile.Coupling.adjacent g 0 4);
  check_int "corner to corner" 3 (Transpile.Coupling.distance g 0 5)

let test_complete () =
  let c = Transpile.Coupling.complete 4 in
  check_bool "all pairs" true
    (List.for_all
       (fun (a, b) -> Transpile.Coupling.adjacent c a b)
       [ (0, 1); (0, 3); (1, 2); (2, 3) ])

let test_coupling_errors () =
  check_bool "out of range" true
    (try
       ignore (Transpile.Coupling.of_edges ~num_qubits:2 [ (0, 5) ]);
       false
     with Invalid_argument _ -> true);
  check_bool "self loop" true
    (try
       ignore (Transpile.Coupling.of_edges ~num_qubits:2 [ (1, 1) ]);
       false
     with Invalid_argument _ -> true);
  let disconnected = Transpile.Coupling.of_edges ~num_qubits:3 [ (0, 1) ] in
  check_bool "disconnected distance" true
    (try
       ignore (Transpile.Coupling.distance disconnected 0 2);
       false
     with Not_found -> true)

let test_neighbours () =
  let l = Transpile.Coupling.line 4 in
  Alcotest.(check (list int)) "middle" [ 0; 2 ] (Transpile.Coupling.neighbours l 1);
  Alcotest.(check (list int)) "end" [ 1 ] (Transpile.Coupling.neighbours l 0)

(* ------------------------------------------------------------------ *)
(* Route                                                              *)

let circuit_of ~roles instrs = Circ.create ~roles ~num_bits:0 instrs
let data n = Array.make n Circ.Data

let test_route_adjacent_untouched () =
  let c = circuit_of ~roles:(data 3) [ u ~controls:[ 0 ] Gate.X 1 ] in
  let r = Transpile.Route.run ~coupling:(Transpile.Coupling.line 3) c in
  check_int "no swaps" 0 r.swaps_inserted;
  check_int "same gate count" 1 (Metrics.gate_count r.circuit)

let test_route_distant_cx () =
  let c = circuit_of ~roles:(data 4) [ u ~controls:[ 0 ] Gate.X 3 ] in
  let r = Transpile.Route.run ~coupling:(Transpile.Coupling.line 4) c in
  check_int "two swaps" 2 r.swaps_inserted;
  check_int "cx overhead" 6 r.cx_overhead;
  (* the layout moved logical 0 next to logical 3 *)
  check_int "logical 0 at phys 2" 2 r.phys_of_logical.(0)

let test_route_preserves_distribution () =
  (* GHZ preparation with long-range gates on a line *)
  let roles = data 4 in
  let c =
    circuit_of ~roles
      [
        u Gate.H 0;
        u ~controls:[ 0 ] Gate.X 2;
        u ~controls:[ 0 ] Gate.X 3;
        u ~controls:[ 2 ] Gate.X 1;
      ]
  in
  let r = Transpile.Route.run ~coupling:(Transpile.Coupling.line 4) c in
  let logical = List.init 4 (fun q -> (q, q)) in
  let d0 = Sim.Exact.measured_distribution ~measures:logical c in
  let d1 =
    Sim.Exact.measured_distribution
      ~measures:(Transpile.Route.measures_for r ~logical)
      r.circuit
  in
  check_bool "distribution preserved" true (Sim.Dist.approx_equal d0 d1)

let test_route_dynamic_circuit () =
  (* a DQC (2 qubits, measure/reset/conditioned) routes with no swaps
     on the smallest device *)
  let rt = Dqc.Transform.transform (Algorithms.Bv.circuit "1011") in
  let r =
    Transpile.Route.run ~coupling:(Transpile.Coupling.line 2) rt.circuit
  in
  check_int "no swaps" 0 r.swaps_inserted;
  check_bool "instructions preserved" true
    (Circ.equal r.circuit rt.circuit)

let test_route_errors () =
  let too_small () =
    let c = circuit_of ~roles:(data 3) [] in
    Transpile.Route.run ~coupling:(Transpile.Coupling.line 2) c
  in
  check_bool "device too small" true
    (try
       ignore (too_small ());
       false
     with Transpile.Route.Unroutable _ -> true);
  let toffoli =
    circuit_of ~roles:(data 3) [ u ~controls:[ 0; 1 ] Gate.X 2 ]
  in
  check_bool "multi-control rejected" true
    (try
       ignore
         (Transpile.Route.run ~coupling:(Transpile.Coupling.line 3) toffoli);
       false
     with Transpile.Route.Unroutable _ -> true);
  let disconnected = Transpile.Coupling.of_edges ~num_qubits:3 [ (0, 1) ] in
  let long = circuit_of ~roles:(data 3) [ u ~controls:[ 0 ] Gate.X 2 ] in
  check_bool "disconnected rejected" true
    (try
       ignore (Transpile.Route.run ~coupling:disconnected long);
       false
     with Transpile.Route.Unroutable _ -> true)

let test_route_spare_qubits () =
  let c = circuit_of ~roles:[| Circ.Data; Circ.Answer |] [ u ~controls:[ 0 ] Gate.X 1 ] in
  let r = Transpile.Route.run ~coupling:(Transpile.Coupling.line 4) c in
  check_int "device size" 4 (Circ.num_qubits r.circuit);
  check_bool "spare qubits are ancillas" true
    (Circ.role r.circuit 3 = Circ.Ancilla)

(* Testkit's random dynamic circuits on up to 5 qubits and 20
   instructions, each controlled gate kept on its first control only,
   routed onto a 5-qubit line.  The draw's qubits are spread over the
   line, its first and last at the two ends, so a draw on two qubits
   still needs SWAPs: 2.6 on average. *)
let prop_routing_preserves_distribution =
  Testkit.circuit_test
    ~name:"routing onto a line preserves the measured distribution" ~count:40
    ~max_qubits:5 ~max_instrs:20 (fun c ->
      let spread q = q * 4 / max 1 (Circ.num_qubits c - 1) in
      let one_control (a : Instruction.app) =
        { a with controls = List.filteri (fun i _ -> i = 0) a.controls }
      in
      let c =
        Circ.create ~roles:(data 5) ~num_bits:(Circ.num_bits c)
          (List.map
             (fun (i : Instruction.t) ->
               Instruction.map_qubits spread
                 (match i with
                 | Unitary a -> Unitary (one_control a)
                 | Conditioned (cond, a) -> Conditioned (cond, one_control a)
                 | Measure _ | Reset _ | Barrier _ -> i))
             (Circ.instructions c))
      in
      let r = Transpile.Route.run ~coupling:(Transpile.Coupling.line 5) c in
      let logical = List.init 5 (fun q -> (q, q)) in
      let d0 = Sim.Exact.measured_distribution ~measures:logical c in
      let d1 =
        Sim.Exact.measured_distribution
          ~measures:(Transpile.Route.measures_for r ~logical)
          r.circuit
      in
      Sim.Dist.approx_equal ~eps:1e-7 d0 d1)

let test_route_conditioned_with_control () =
  (* a conditioned CX (direct-MCT output shape) routes like a CX *)
  let roles = data 4 in
  let c =
    Circ.create ~roles ~num_bits:1
      [
        Instruction.Measure { qubit = 1; bit = 0 };
        Instruction.Conditioned
          (Instruction.cond_bit 0 true, Instruction.app ~controls:[ 0 ] Gate.X 3);
      ]
  in
  let r = Transpile.Route.run ~coupling:(Transpile.Coupling.line 4) c in
  check_int "swaps" 2 r.swaps_inserted

(* ------------------------------------------------------------------ *)
(* Placement                                                          *)

let test_interaction_weights () =
  let c =
    circuit_of ~roles:(data 3)
      [ u ~controls:[ 0 ] Gate.X 2; u ~controls:[ 0 ] Gate.X 2; u ~controls:[ 1 ] Gate.X 2 ]
  in
  Alcotest.(check (list (pair (pair int int) int)))
    "weights" [ ((0, 2), 2); ((1, 2), 1) ]
    (Transpile.Placement.interaction_weights c)

let test_greedy_placement_cuts_swaps () =
  let c = Algorithms.Bv.circuit "11111111" in
  let coupling = Transpile.Coupling.line 9 in
  let identity = Transpile.Route.run ~coupling c in
  let placed = Transpile.Placement.route_with_placement ~coupling c in
  check_bool "at least 3x fewer swaps" true
    (placed.swaps_inserted * 3 <= identity.swaps_inserted)

let test_greedy_placement_preserves () =
  let c = Algorithms.Bv.circuit "1011" in
  let coupling = Transpile.Coupling.line 5 in
  let placed = Transpile.Placement.route_with_placement ~coupling c in
  let logical = List.init 4 (fun q -> (q, q)) in
  let d0 = Sim.Exact.measured_distribution ~measures:logical c in
  let d1 =
    Sim.Exact.measured_distribution
      ~measures:(Transpile.Route.measures_for placed ~logical)
      placed.circuit
  in
  check_bool "preserved" true (Sim.Dist.approx_equal ~eps:1e-7 d0 d1)

let test_initial_layout_validation () =
  let c = circuit_of ~roles:(data 2) [ u ~controls:[ 0 ] Gate.X 1 ] in
  let coupling = Transpile.Coupling.line 3 in
  let rejected layout =
    try
      ignore (Transpile.Route.run ~initial_layout:layout ~coupling c);
      false
    with Transpile.Route.Unroutable _ -> true
  in
  check_bool "repeat" true (rejected [| 1; 1 |]);
  check_bool "off device" true (rejected [| 0; 7 |]);
  check_bool "wrong length" true (rejected [| 0 |]);
  (* a valid non-identity layout works *)
  let r = Transpile.Route.run ~initial_layout:[| 2; 1 |] ~coupling c in
  check_int "no swaps needed" 0 r.swaps_inserted

(* ------------------------------------------------------------------ *)
(* Basis                                                              *)

let gate_pool_full =
  Gate.[ H; X; Y; Z; S; Sdg; T; Tdg; V; Vdg; Rx 0.7; Ry (-1.1); Rz 2.3; Phase 0.4 ]

let test_native_1q_all_gates () =
  List.iter
    (fun g ->
      let direct = circuit_of ~roles:(data 1) [ u g 0 ] in
      let native =
        circuit_of ~roles:(data 1)
          (List.map (fun g' -> u g' 0) (Transpile.Basis.native_1q g))
      in
      check_bool (Gate.name g) true (Sim.Unitary.equivalent direct native))
    gate_pool_full

let test_native_controlled_all_gates () =
  List.iter
    (fun g ->
      let direct = circuit_of ~roles:(data 2) [ u ~controls:[ 0 ] g 1 ] in
      let native = Transpile.Basis.to_native direct in
      check_bool ("c-" ^ Gate.name g) true
        (Sim.Unitary.equivalent direct native);
      check_bool ("c-" ^ Gate.name g ^ " is native") true
        (Transpile.Basis.is_native native))
    gate_pool_full

let test_native_preserves_dynamic_distribution () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "OR") in
  let dj = Algorithms.Dj.circuit o in
  let r = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 dj in
  let native = Transpile.Basis.to_native r.circuit in
  check_bool "fully native" true (Transpile.Basis.is_native native);
  let nd = List.length r.data_bit in
  let measures = List.mapi (fun k (_, p) -> (p, nd + k)) r.answer_phys in
  let d0 = Sim.Exact.measured_distribution ~measures r.circuit in
  let d1 = Sim.Exact.measured_distribution ~measures native in
  check_bool "distribution preserved" true (Sim.Dist.approx_equal ~eps:1e-7 d0 d1)

let test_native_rejects_multi_control () =
  let toffoli = circuit_of ~roles:(data 3) [ u ~controls:[ 0; 1 ] Gate.X 2 ] in
  check_bool "rejects" true
    (try
       ignore (Transpile.Basis.to_native toffoli);
       false
     with Invalid_argument _ -> true)

let test_zyz_reconstruction () =
  List.iter
    (fun g ->
      let m = Gate.matrix g in
      let alpha, beta, gamma, delta = Transpile.Basis.zyz_angles m in
      let rebuilt =
        circuit_of ~roles:(data 1)
          [ u (Gate.Rz delta) 0; u (Gate.Ry gamma) 0; u (Gate.Rz beta) 0 ]
      in
      let target = circuit_of ~roles:(data 1) [ u g 0 ] in
      (* exact including alpha *)
      let mu = Sim.Unitary.of_circuit rebuilt in
      let scaled =
        Linalg.Cmat.scale (Linalg.Complex_ext.exp_i alpha) mu
      in
      check_bool (Gate.name g ^ " zyz exact") true
        (Linalg.Cmat.approx_equal scaled (Sim.Unitary.of_circuit target)))
    gate_pool_full

let prop_basis_random_sequences =
  QCheck2.Test.make ~name:"native lowering of random 1q sequences" ~count:60
    QCheck2.Gen.(list_size (int_range 1 8) (oneofl gate_pool_full))
    (fun gs ->
      let direct =
        circuit_of ~roles:(data 1) (List.map (fun g -> u g 0) gs)
      in
      let native = Transpile.Basis.to_native direct in
      Transpile.Basis.is_native native
      && Sim.Unitary.equivalent direct native)

let () =
  Alcotest.run "transpile"
    [
      ( "coupling",
        [
          Alcotest.test_case "line" `Quick test_line;
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "errors" `Quick test_coupling_errors;
          Alcotest.test_case "neighbours" `Quick test_neighbours;
        ] );
      ( "route",
        [
          Alcotest.test_case "adjacent untouched" `Quick
            test_route_adjacent_untouched;
          Alcotest.test_case "distant cx" `Quick test_route_distant_cx;
          Alcotest.test_case "preserves distribution" `Quick
            test_route_preserves_distribution;
          Alcotest.test_case "dynamic circuit" `Quick test_route_dynamic_circuit;
          Alcotest.test_case "errors" `Quick test_route_errors;
          Alcotest.test_case "spare qubits" `Quick test_route_spare_qubits;
          Alcotest.test_case "conditioned with control" `Quick
            test_route_conditioned_with_control;
          QCheck_alcotest.to_alcotest prop_routing_preserves_distribution;
        ] );
      ( "placement",
        [
          Alcotest.test_case "interaction weights" `Quick
            test_interaction_weights;
          Alcotest.test_case "cuts swaps" `Quick test_greedy_placement_cuts_swaps;
          Alcotest.test_case "preserves distribution" `Quick
            test_greedy_placement_preserves;
          Alcotest.test_case "layout validation" `Quick
            test_initial_layout_validation;
        ] );
      ( "basis",
        [
          Alcotest.test_case "1q gates" `Quick test_native_1q_all_gates;
          Alcotest.test_case "controlled gates" `Quick
            test_native_controlled_all_gates;
          Alcotest.test_case "dynamic distribution" `Quick
            test_native_preserves_dynamic_distribution;
          Alcotest.test_case "rejects multi-control" `Quick
            test_native_rejects_multi_control;
          Alcotest.test_case "zyz exact" `Quick test_zyz_reconstruction;
          QCheck_alcotest.to_alcotest prop_basis_random_sequences;
        ] );
    ]
