(* Property tests pinning down exactly which lattice laws the
   relational domain satisfies.

   The rank join is a sound upper bound but not a least upper bound
   (incomparable minimal upper bounds exist), so associativity is
   deliberately scoped: the partition component is tested for exact
   associativity, the full join only for mutual upper-bounding.  The
   row (GF(2) affine) component is tested through its canonical
   reduced-echelon form and the facts it implies. *)

open Circuit

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Gf2: canonical reduced echelon form                                 *)

let width = 10

let vectors_gen =
  QCheck2.Gen.(list_size (int_range 0 8) (int_bound ((1 lsl width) - 1)))

(* reduced is a fixpoint: re-reducing a canonical basis changes nothing *)
let prop_reduced_fixpoint =
  QCheck2.Test.make ~name:"gf2 reduced is a fixpoint" ~count:300 vectors_gen
    (fun vs ->
      let basis = Gf2.reduced ~width vs in
      Gf2.reduced ~width basis = basis)

(* canonical form is invariant under elementary row operations, so
   structural equality decides span equality *)
let prop_reduced_canonical =
  QCheck2.Test.make ~name:"gf2 reduced is canonical under row ops" ~count:300
    QCheck2.Gen.(pair vectors_gen (int_bound 1000))
    (fun (vs, salt) ->
      let basis = Gf2.reduced ~width vs in
      let mangled =
        (* xor random pairs of rows together and shuffle: same span *)
        match vs with
        | [] -> []
        | v0 :: _ ->
            List.rev
              (List.mapi (fun i v -> if (salt + i) mod 2 = 0 then v lxor v0 else v) vs)
            @ [ v0 ]
      in
      Gf2.reduced ~width mangled = basis)

let prop_in_span =
  QCheck2.Test.make ~name:"gf2 inputs lie in the span of their reduction"
    ~count:300 vectors_gen (fun vs ->
      let basis = Gf2.reduced ~width vs in
      List.for_all (Gf2.in_span ~width basis) vs
      && List.for_all
           (fun v -> List.for_all (fun w -> Gf2.in_span ~width basis (v lxor w)) vs)
           vs)

(* ------------------------------------------------------------------ *)
(* Random abstract states                                              *)

(* Instruction lists from Testkit's random dynamic circuits on up to 4
   qubits: a law over [parts] lists splits one draw of up to
   [24 * parts] instructions into [parts] runs, [run 0] first. *)
let law_test ~name ~count ~parts prop =
  Testkit.circuit_test ~name ~count ~max_qubits:4 ~max_instrs:(24 * parts)
    (fun c ->
      let instrs = Circ.instructions c in
      let n = List.length instrs in
      prop c (fun k -> List.filteri (fun i _ -> i * parts / n = k) instrs))

let state_of c instrs =
  List.fold_left Lint.Reldom.step
    (Lint.Reldom.init ~num_qubits:(Circ.num_qubits c)
       ~num_bits:(Circ.num_bits c))
    instrs

let partition d = List.map fst (Lint.Reldom.blocks d)

let implications c d =
  ( List.init (Circ.num_qubits c) (Lint.Reldom.implied_qubit d),
    List.init (Circ.num_bits c) (Lint.Reldom.implied_bit d) )

(* ------------------------------------------------------------------ *)
(* Join laws                                                           *)

let prop_join_comm =
  law_test ~name:"join commutative" ~count:200 ~parts:2 (fun c run ->
      let a = state_of c (run 0) and b = state_of c (run 1) in
      Lint.Reldom.equal (Lint.Reldom.join a b) (Lint.Reldom.join b a))

let prop_join_idempotent =
  law_test ~name:"join idempotent" ~count:200 ~parts:1 (fun c run ->
      let a = state_of c (run 0) in
      Lint.Reldom.equal (Lint.Reldom.join a a) a)

let prop_join_upper_bound =
  law_test ~name:"join is an upper bound" ~count:200 ~parts:2 (fun c run ->
      let a = state_of c (run 0) and b = state_of c (run 1) in
      let j = Lint.Reldom.join a b in
      Lint.Reldom.leq a j && Lint.Reldom.leq b j)

(* exact associativity holds on the partition component; the full
   domain is only associative up to mutual upper-bounding because the
   rank join is not a least upper bound *)
let prop_join_assoc_scoped =
  law_test ~name:"join associative (partition exact, rank bounded)"
    ~count:150 ~parts:3 (fun c run ->
      let a = state_of c (run 0)
      and b = state_of c (run 1)
      and d = state_of c (run 2) in
      let x = Lint.Reldom.join (Lint.Reldom.join a b) d in
      let y = Lint.Reldom.join a (Lint.Reldom.join b d) in
      partition x = partition y
      && implications c x = implications c y
      && Lint.Reldom.leq a x && Lint.Reldom.leq b x && Lint.Reldom.leq d x
      && Lint.Reldom.leq a y && Lint.Reldom.leq b y && Lint.Reldom.leq d y)

(* the affine rows of a join hold in both arguments: facts proved on
   both sides survive the Zassenhaus span intersection *)
let prop_join_keeps_common_facts =
  law_test ~name:"join keeps facts common to both sides" ~count:200 ~parts:2
    (fun c run ->
      let a = state_of c (run 0) and b = state_of c (run 1) in
      let j = Lint.Reldom.join a b in
      let qubit_ok q =
        match (Lint.Reldom.implied_qubit a q, Lint.Reldom.implied_qubit b q) with
        | Some va, Some vb when va = vb ->
            Lint.Reldom.implied_qubit j q = Some va
        | Some _, Some _ | Some _, None | None, Some _ | None, None -> true
      in
      let bit_ok bi =
        match (Lint.Reldom.implied_bit a bi, Lint.Reldom.implied_bit b bi) with
        | Some va, Some vb when va = vb -> Lint.Reldom.implied_bit j bi = Some va
        | Some _, Some _ | Some _, None | None, Some _ | None, None -> true
      in
      List.for_all qubit_ok (List.init (Circ.num_qubits c) Fun.id)
      && List.for_all bit_ok (List.init (Circ.num_bits c) Fun.id))

(* ------------------------------------------------------------------ *)
(* Transfer monotonicity                                               *)

(* a <= b by the upper-bound law; stepping either by any instruction
   of the third run must preserve it *)
let prop_transfer_monotone =
  law_test ~name:"transfer monotone" ~count:200 ~parts:3 (fun c run ->
      let a = state_of c (run 0) in
      let b = Lint.Reldom.join a (state_of c (run 1)) in
      List.for_all
        (fun i -> Lint.Reldom.leq (Lint.Reldom.step a i) (Lint.Reldom.step b i))
        (run 2))

let prop_leq_reflexive_on_join_chain =
  law_test ~name:"leq reflexive and transitive up the join chain" ~count:150
    ~parts:3 (fun c run ->
      let a = state_of c (run 0) in
      let ab = Lint.Reldom.join a (state_of c (run 1)) in
      let abc = Lint.Reldom.join ab (state_of c (run 2)) in
      Lint.Reldom.leq a a && Lint.Reldom.leq a ab && Lint.Reldom.leq ab abc
      && Lint.Reldom.leq a abc)

(* ------------------------------------------------------------------ *)
(* Bound sanity                                                        *)

let prop_bound_within_register =
  law_test ~name:"support bound within the register" ~count:300 ~parts:1
    (fun c run ->
      let k = Lint.Reldom.log2_support_bound (state_of c (run 0)) in
      0 <= k && k <= Circ.num_qubits c)

let test_init_facts () =
  let nq = 4 and nb = 2 in
  let d = Lint.Reldom.init ~num_qubits:nq ~num_bits:nb in
  check_bool "tracked" true (Lint.Reldom.tracked d);
  check_bool "bound 0" true (Lint.Reldom.log2_support_bound d = 0);
  for q = 0 to nq - 1 do
    check_bool "qubit zero" true (Lint.Reldom.implied_qubit d q = Some false)
  done;
  for b = 0 to nb - 1 do
    check_bool "bit zero" true (Lint.Reldom.implied_bit d b = Some false)
  done

let test_parity_relation () =
  (* H 0; CX 0 1: x0 = x1 on every branch, one rank-1 block of {0,1} *)
  let c =
    Circ.create ~roles:(Array.make 4 Circ.Data) ~num_bits:2
      [
        Instruction.Unitary (Instruction.app Gate.H 0);
        Instruction.Unitary (Instruction.app ~controls:[ 0 ] Gate.X 1);
      ]
  in
  let d = state_of c (Circ.instructions c) in
  check_bool "bound 1" true (Lint.Reldom.log2_support_bound d = 1);
  check_bool "entangled" true
    (List.exists (fun (m, _) -> m = [ 0; 1 ]) (partition d |> List.map (fun m -> (m, ()))));
  (* measuring either qubit pins the other through x0 = x1 *)
  let m = Lint.Reldom.step d (Instruction.Measure { qubit = 0; bit = 0 }) in
  check_bool "measure splits" true
    (List.for_all (fun (ms, _) -> List.length ms = 1) (Lint.Reldom.blocks m))

let () =
  Alcotest.run "reldom"
    [
      ( "gf2",
        List.map QCheck_alcotest.to_alcotest
          [ prop_reduced_fixpoint; prop_reduced_canonical; prop_in_span ] );
      ( "join",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_join_comm;
            prop_join_idempotent;
            prop_join_upper_bound;
            prop_join_assoc_scoped;
            prop_join_keeps_common_facts;
          ] );
      ( "transfer",
        List.map QCheck_alcotest.to_alcotest
          [ prop_transfer_monotone; prop_leq_reflexive_on_join_chain ] );
      ( "bounds",
        Alcotest.test_case "init facts" `Quick test_init_facts
        :: Alcotest.test_case "parity relation" `Quick test_parity_relation
        :: List.map QCheck_alcotest.to_alcotest [ prop_bound_within_register ]
      );
    ]
