(* Symbolic path-sum certifier: exact ring arithmetic laws, static
   netlist identities through the channel certifier, Proved on every
   Table I/II benchmark under both dynamic schemes (with no simulation
   backend involved), Proved past the exact checkers' 12-qubit limit,
   and Refuted with a concrete measurement-branch counterexample on a
   corrupted transformation. *)

open Circuit
module R = Verify.Ring
module C = Verify.Certify

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let u ?controls g t = Instruction.Unitary (Instruction.app ?controls g t)

(* ------------------------------------------------------------------ *)
(* Ring laws: exact arithmetic in Z[omega, 1/sqrt2]                   *)

(* omega^k for k >= 0, by repeated multiplication *)
let rec omega_pow k =
  if k = 0 then R.one else R.mul (R.make 0 1 0 0) (omega_pow (k - 1))

let samples =
  [
    R.zero;
    R.one;
    R.i;
    omega_pow 1;
    omega_pow 5;
    R.make 1 2 3 4;
    R.make ~s:3 1 0 (-2) 5;
  ]

let test_ring_group_laws () =
  check_bool "omega^8 = 1" true (R.equal (omega_pow 8) R.one);
  check_bool "omega^4 = -1" true (R.equal (omega_pow 4) (R.neg R.one));
  check_bool "omega^2 = i" true (R.equal (omega_pow 2) R.i);
  List.iter
    (fun x ->
      check_bool "x + 0 = x" true (R.equal (R.add x R.zero) x);
      check_bool "x * 1 = x" true (R.equal (R.mul x R.one) x);
      check_bool "x - x = 0" true (R.is_zero (R.sub x x)))
    samples;
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          check_bool "commutative +" true
            (R.equal (R.add x y) (R.add y x));
          check_bool "commutative *" true
            (R.equal (R.mul x y) (R.mul y x));
          List.iter
            (fun z ->
              check_bool "distributive" true
                (R.equal
                   (R.mul x (R.add y z))
                   (R.add (R.mul x y) (R.mul x z))))
            samples)
        samples)
    samples

let test_ring_conj_norm () =
  List.iter
    (fun x ->
      check_bool "norm_sq = x * conj x" true
        (R.equal (R.norm_sq x) (R.mul x (R.conj x))))
    samples;
  check_bool "|omega^3|^2 = 1" true (R.equal (R.norm_sq (omega_pow 3)) R.one);
  check_bool "|1+i|^2 = 2" true
    (R.equal (R.norm_sq (R.add R.one R.i)) (R.of_int 2))

let test_ring_root2_normalization () =
  (* 2 / sqrt2^2 = 1: the denominator exponent must actually cancel *)
  check_bool "2/sqrt2^2 = 1" true (R.equal (R.div_root2 2 (R.of_int 2)) R.one);
  (* sqrt2 = omega - omega^3, so (omega - omega^3)/sqrt2 = 1 *)
  let root2 = R.sub (omega_pow 1) (omega_pow 3) in
  check_bool "sqrt2/sqrt2 = 1" true (R.equal (R.div_root2 1 root2) R.one);
  check_bool "sqrt2 * sqrt2 = 2" true
    (R.equal (R.mul root2 root2) (R.of_int 2))

(* V = (1/2) [[1+i, 1-i], [1-i, 1+i]] squares exactly to X — the
   identity underlying the paper's Fig 3/4 circuits, checked in the
   ring with no floats involved. *)
let test_ring_v_squared_is_x () =
  let a = R.div_root2 2 (R.add R.one R.i) in
  let b = R.div_root2 2 (R.sub R.one R.i) in
  let diag = R.add (R.mul a a) (R.mul b b) in
  let off = R.add (R.mul a b) (R.mul b a) in
  check_bool "diagonal of V*V is 0" true (R.is_zero diag);
  check_bool "off-diagonal of V*V is 1" true (R.equal off R.one)

(* ------------------------------------------------------------------ *)
(* Static identities through the channel certifier                    *)

(* [choi n gates]: each of the n data qubits is entangled with its
   reference qubit n+q, [gates] act on the data, the pairs are
   disentangled again and all 2n qubits are measured.  Outcome x has
   probability |Tr(P_x U)|^2 / 4^n for the Pauli P_x it names, so
   netlists that are equal up to global phase give equal channels,
   and X and I do not. *)
let choi n gates =
  let pair q = [ u Gate.H (n + q); u ~controls:[ n + q ] Gate.X q ] in
  let entangle = List.concat_map pair (List.init n Fun.id) in
  Circ.create
    ~roles:(Array.make (2 * n) Circ.Data)
    ~num_bits:(2 * n)
    (entangle @ gates @ List.rev entangle
    @ List.init (2 * n) (fun q -> Instruction.Measure { qubit = q; bit = q }))

let equal_netlists n a b = C.is_proved (C.check_channel (choi n a) (choi n b))

let test_static_involutions () =
  let cxcx = [ u ~controls:[ 0 ] Gate.X 1; u ~controls:[ 0 ] Gate.X 1 ] in
  check_bool "CX CX = I" true (equal_netlists 2 cxcx []);
  check_bool "H H = I" true (equal_netlists 2 [ u Gate.H 0; u Gate.H 0 ] [])

let test_static_toffoli_decompositions () =
  let ccx = [ u ~controls:[ 0; 1 ] Gate.X 2 ] in
  let decompose scheme =
    Circ.instructions
      (Decompose.Pass.substitute_toffoli scheme
         (Circ.create ~roles:(Array.make 3 Circ.Data) ~num_bits:0 ccx))
  in
  let clifford_t = decompose `Clifford_t and barenco = decompose `Barenco in
  check_bool "Clifford+T decomposition = CCX" true
    (equal_netlists 3 ccx clifford_t);
  check_bool "Barenco decomposition = CCX" true (equal_netlists 3 ccx barenco);
  check_bool "Clifford+T = Barenco" true (equal_netlists 3 clifford_t barenco)

let test_static_is_not_trivially_true () =
  check_bool "X /= I" false (equal_netlists 2 [ u Gate.X 0 ] []);
  check_bool "CX /= I" false (equal_netlists 2 [ u ~controls:[ 0 ] Gate.X 1 ] [])

(* ------------------------------------------------------------------ *)
(* The comparator's renaming                                          *)

(* H q; H q in front of a circuit adds two path variables, which the
   HH rule removes, so every surviving variable of the normalized sum
   is numbered two higher than without the prefix: the comparator has
   to find a renaming that is not the identity.  The structural route
   alone decides (no exhaustive fallback).  Each draw is mapped to its
   certifiable part: symbolic execution rejects a guarded H even when
   reduction would make its guard constant, and rotations at random
   angles.  The draws that measure no bit, which the certifier leaves
   undecided, are left out, and the count of the others pins the
   filter. *)
let test_prefix_hh_renaming () =
  let rng = Random.State.make [| 0xC0DE |] in
  let proved a b = C.is_proved (C.check_channel ~max_refute_vars:0 a b) in
  let kept = ref 0 in
  for k = 1 to 2000 do
    let c =
      Testkit.certifiable_part
        (Testkit.random_dynamic_circuit ~max_qubits:4 ~max_instrs:14 rng)
    in
    let q = Random.State.int rng (Circ.num_qubits c) in
    if proved c c then begin
      incr kept;
      let hh =
        Circ.create ~roles:(Circ.roles c) ~num_bits:(Circ.num_bits c)
          (u Gate.H q :: u Gate.H q :: Circ.instructions c)
      in
      check_bool (Printf.sprintf "draw %d: H%d H%d prefix proved" k q q) true
        (proved c hh)
    end
  done;
  check_int "circuits proved equal to themselves" 999 !kept

(* In V; measure; H; V the HH rule that sums out x2 solves for x1,
   which c0 records, so c0 reads x3 from then on and x3 must stay
   observed; summed out, it would set the circuit apart from itself
   without its gates after the measurement, which the optimizer's
   dead-code sweep drops. *)
let test_observed_variable_substituted () =
  let c tail =
    Circ.create ~roles:[| Circ.Data |] ~num_bits:1
      ([ u Gate.V 0; Instruction.Measure { qubit = 0; bit = 0 } ] @ tail)
  in
  let tail = c [ u Gate.H 0; u Gate.V 0 ] in
  check_bool "tail dropped" true (C.is_proved (C.check_channel tail (c [])));
  check_bool "tail added" true (C.is_proved (C.check_channel (c []) tail))

(* A condition on a bit no measurement wrote reads the 0 the register
   starts at, as every engine and the linter read it: a gate
   conditioned on [c1 == 0] fires. *)
let test_unwritten_bit_reads_zero () =
  let cond b v g t =
    Instruction.Conditioned (Instruction.cond_bit b v, Instruction.app g t)
  and measure qubit bit = Instruction.Measure { qubit; bit } in
  let c ~qubits ~bits instrs =
    Circ.create ~roles:(Array.make qubits Circ.Data) ~num_bits:bits instrs
  in
  let fired =
    c ~qubits:2 ~bits:3
      [ u Gate.H 0; cond 1 false Gate.X 1; measure 0 0; measure 1 2 ]
  in
  check_bool "proved against itself" true
    (C.is_proved (C.check_channel ~max_refute_vars:0 fired fired));
  let flipped = c ~qubits:1 ~bits:2 [ cond 1 false Gate.X 0; measure 0 0 ]
  and plain = c ~qubits:1 ~bits:2 [ measure 0 0 ] in
  check_bool "refuted against the unconditioned circuit" true
    (match C.check_channel flipped plain with
    | C.Refuted _ -> true
    | C.Proved _ | C.Unknown _ -> false)

(* ------------------------------------------------------------------ *)
(* Table I / Table II benchmarks, both schemes                        *)

let certify_traditional name traditional =
  let r = Dqc.Transform.transform traditional in
  check_bool
    (name ^ " proved")
    true
    (C.is_proved (Dqc.Certifier.certify traditional r))

let test_table1_certified () =
  List.iter
    (fun s -> certify_traditional ("BV_" ^ s) (Algorithms.Bv.circuit s))
    Algorithms.Bv.paper_benchmarks;
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      certify_traditional o.name (Algorithms.Dj.circuit o))
    Algorithms.Dj.toffoli_free_oracles

let certify_scheme scheme (o : Algorithms.Oracle.t) =
  let dj = Algorithms.Dj.circuit o in
  let r = Dqc.Toffoli_scheme.transform scheme dj in
  ( Dqc.Certifier.certify dj r,
    Printf.sprintf "%s %s" o.name (Dqc.Toffoli_scheme.to_string scheme) )

(* the Table II oracles and the generated ones of 4 to 8 inputs *)
let test_table2_certified () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (o : Algorithms.Oracle.t) ->
          let verdict, label = certify_scheme scheme o in
          check_bool (label ^ " proved") true (C.is_proved verdict))
        Testkit.table2_and_generated_oracles)
    [ Dqc.Toffoli_scheme.Dynamic_1; Dqc.Toffoli_scheme.Dynamic_2 ]

(* dynamic-2 on the violation-free 2-input oracles must reach the
   strongest claim — full channel equality, not just faithful
   dynamics *)
let test_dyn2_channel_scope () =
  List.iter
    (fun name ->
      let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name name) in
      let verdict, label = certify_scheme Dqc.Toffoli_scheme.Dynamic_2 o in
      match verdict with
      | C.Proved { scope = C.Channel; _ } -> ()
      | C.Proved { scope = C.Dynamics; _ } ->
          Alcotest.fail (label ^ ": proved only dynamics scope")
      | C.Refuted _ | C.Unknown _ -> Alcotest.fail (label ^ ": not proved"))
    [ "AND"; "NAND"; "OR"; "NOR" ]

(* dynamic-1 deviates from the traditional schedule (recorded
   violations, Fig 7 accuracy loss): the certifier must prove the
   dynamics faithful and surface a concrete schedule counterexample *)
let test_dyn1_dynamics_scope_with_cex () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let verdict, label = certify_scheme Dqc.Toffoli_scheme.Dynamic_1 o in
  match verdict with
  | C.Proved { scope = C.Dynamics; schedule_cex = Some cex; _ } ->
      check_bool (label ^ " cex probabilities differ") true
        (cex.C.p_left <> cex.C.p_right)
  | C.Proved _ -> Alcotest.fail (label ^ ": expected dynamics scope + cex")
  | C.Refuted _ | C.Unknown _ -> Alcotest.fail (label ^ ": not proved")

(* ------------------------------------------------------------------ *)
(* Past the exact checkers: 13 and 17 qubits                          *)

let test_wide_instances_certified () =
  List.iter
    (fun scheme ->
      let verdict, label =
        certify_scheme scheme (Algorithms.Mct_bench.and_n 12)
      in
      check_bool (label ^ " proved at 13 qubits") true (C.is_proved verdict))
    [ Dqc.Toffoli_scheme.Dynamic_1; Dqc.Toffoli_scheme.Dynamic_2 ];
  let verdict, label =
    certify_scheme Dqc.Toffoli_scheme.Dynamic_1 (Algorithms.Mct_bench.xor_n 16)
  in
  match verdict with
  | C.Proved { scope = C.Channel; _ } -> ()
  | C.Proved _ | C.Refuted _ | C.Unknown _ ->
      Alcotest.fail (label ^ ": expected channel proof at 17 qubits")

(* Certification must never dispatch a simulation backend — that is
   the whole point.  The Obs counters are the witness. *)
let test_no_backend_dispatch () =
  let o = Algorithms.Mct_bench.and_n 12 in
  let dj = Algorithms.Dj.circuit o in
  let r = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
  let collector, verdict =
    Obs.with_collector (fun () -> Dqc.Certifier.certify dj r)
  in
  check_bool "proved" true (C.is_proved verdict);
  let counters = Obs.Collector.counters collector in
  let prefixed p (name, _) =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  check_bool "verify counters recorded" true
    (List.exists (prefixed "verify.") counters);
  Alcotest.(check (list string))
    "no backend.* dispatches" []
    (List.map fst (List.filter (prefixed "backend.") counters))

(* ------------------------------------------------------------------ *)
(* Refutation: fault injection yields a concrete counterexample       *)

let test_corrupted_refuted () =
  let o = Option.get (Algorithms.Dj.oracle_by_name "DJ_XOR") in
  let dj = Algorithms.Dj.circuit o in
  let r = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
  let r = { r with Dqc.Transform.circuit = Dqc.Certifier.corrupt r.circuit } in
  match Dqc.Certifier.certify dj r with
  | C.Refuted cex ->
      check_bool "branch is named" true (cex.C.bits <> []);
      check_bool "probabilities differ" true (cex.C.p_left <> cex.C.p_right)
  | C.Proved _ -> Alcotest.fail "corrupted circuit proved"
  | C.Unknown why -> Alcotest.fail ("corrupted circuit unknown: " ^ why)

let test_corrupt_injects_before_measure () =
  let o = Option.get (Algorithms.Dj.oracle_by_name "DJ_XOR") in
  let dj = Algorithms.Dj.circuit o in
  let r = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
  let n = List.length (Circ.instructions r.circuit) in
  check_int "exactly one gate injected" (n + 1)
    (List.length (Circ.instructions (Dqc.Certifier.corrupt r.circuit)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "verify"
    [
      ( "ring",
        [
          Alcotest.test_case "group laws" `Quick test_ring_group_laws;
          Alcotest.test_case "conj and norm" `Quick test_ring_conj_norm;
          Alcotest.test_case "sqrt2 normalization" `Quick
            test_ring_root2_normalization;
          Alcotest.test_case "V*V = X exactly" `Quick test_ring_v_squared_is_x;
        ] );
      ( "static identities",
        [
          Alcotest.test_case "involutions" `Quick test_static_involutions;
          Alcotest.test_case "Toffoli decompositions" `Quick
            test_static_toffoli_decompositions;
          Alcotest.test_case "not trivially true" `Quick
            test_static_is_not_trivially_true;
        ] );
      ( "comparator",
        [
          Alcotest.test_case "H H prefix renames" `Quick
            test_prefix_hh_renaming;
          Alcotest.test_case "observed variable solved for" `Quick
            test_observed_variable_substituted;
          Alcotest.test_case "an unwritten bit reads 0" `Quick
            test_unwritten_bit_reads_zero;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "Table I certified" `Quick test_table1_certified;
          Alcotest.test_case "Table II certified (both schemes)" `Quick
            test_table2_certified;
          Alcotest.test_case "dyn2 channel scope" `Quick
            test_dyn2_channel_scope;
          Alcotest.test_case "dyn1 dynamics scope + cex" `Quick
            test_dyn1_dynamics_scope_with_cex;
          Alcotest.test_case "13 and 17 qubits" `Quick
            test_wide_instances_certified;
          Alcotest.test_case "no backend dispatch" `Quick
            test_no_backend_dispatch;
        ] );
      ( "refutation",
        [
          Alcotest.test_case "corrupted is refuted" `Quick
            test_corrupted_refuted;
          Alcotest.test_case "corrupt shape" `Quick
            test_corrupt_injects_before_measure;
        ] );
    ]
