open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let u ?controls g t = Instruction.Unitary (Instruction.app ?controls g t)
let app ?controls g t = Instruction.app ?controls g t

(* ------------------------------------------------------------------ *)
(* Commute                                                            *)

(* the scheduler's entry point, with a fresh memo per call *)
let instrs x y = Dqc.Commute.instrs (Dqc.Commute.memo ()) x y

(* two unitary applications, through [instrs] *)
let commute a b = instrs (Instruction.Unitary a) (Instruction.Unitary b)

let test_commute_disjoint () =
  check_bool "disjoint" true (commute (app Gate.H 0) (app Gate.X 1))

let test_commute_shared_control () =
  check_bool "control-control" true
    (commute (app ~controls:[ 0 ] Gate.X 1) (app ~controls:[ 0 ] Gate.V 2))

let test_commute_negative () =
  check_bool "H vs its control" false
    (commute (app Gate.H 0) (app ~controls:[ 0 ] Gate.X 1));
  check_bool "X vs Z same qubit" false (commute (app Gate.X 0) (app Gate.Z 0))

let test_commute_same_target_compatible () =
  (* CX and CV sharing a target commute because X and V commute *)
  check_bool "cx/cv shared target" true
    (commute (app ~controls:[ 0 ] Gate.X 2) (app ~controls:[ 1 ] Gate.V 2));
  check_bool "cx/cz shared target" false
    (commute (app ~controls:[ 0 ] Gate.X 2) (app ~controls:[ 1 ] Gate.Z 2))

let test_commute_diagonal_fast_path () =
  check_bool "t vs rz same qubit" true
    (commute (app Gate.T 0) (app (Gate.Rz 0.3) 0))

let test_commute_conditioned_pairs () =
  let cnd b = Instruction.cond_bit b true in
  let cd b g q = Instruction.Conditioned (cnd b, app g q) in
  (* same bit, commuting diagonal apps: reorderable *)
  check_bool "same bit diagonal apps" true
    (instrs (cd 0 Gate.T 0) (cd 0 (Gate.Rz 0.4) 0));
  (* same qubit, non-commuting apps: not reorderable *)
  check_bool "non-commuting apps" false
    (instrs (cd 0 Gate.X 0) (cd 1 Gate.Z 0));
  (* conditioned vs plain unitary on disjoint qubits *)
  check_bool "conditioned vs unitary disjoint" true
    (instrs (cd 0 Gate.X 0) (u Gate.H 1))

let test_commute_instrs_measure () =
  let m = Instruction.Measure { qubit = 0; bit = 0 } in
  check_bool "measure vs disjoint gate" true (instrs m (u Gate.X 1));
  check_bool "measure vs same-qubit gate" false
    (instrs m (u Gate.X 0));
  let cnd = Instruction.Conditioned (Instruction.cond_bit 0 true, app Gate.X 1) in
  check_bool "measure vs conditioned on its bit" false
    (instrs m cnd);
  check_bool "reset vs disjoint" true
    (instrs (Instruction.Reset 0) (u Gate.X 1))

(* The memo answers a pair from any earlier pair with the same
   canonical form.  Random controlled gates over at most 4 qubits, from
   the paper's gates and Rx/Rz angles, share one memo: every one of 1
   to 3 gate pairs is laid over every one of 1 to 6 wirings, so
   different gates meet on one canonical wiring and one gate pair on
   wirings that differ in a control or a target.  Each pair is
   replayed at an order-preserving shift (the same canonical pair: a
   hit) and mirrored, plain and classically conditioned; every answer
   must match the unmemoized oracle at that wiring. *)
let commute_pairs_gen =
  let open QCheck2.Gen in
  let angle =
    oneofl [ 0.; Float.pi /. 4.; Float.pi /. 2.; Float.pi; 0.3; -1.1 ]
  in
  let gate =
    oneof
      [
        oneofl Gate.[ H; X; Y; Z; S; Sdg; T; Tdg; V; Vdg ];
        map (fun t -> Gate.Rx t) angle;
        map (fun t -> Gate.Rz t) angle;
      ]
  in
  let wiring =
    map2
      (fun t cmask ->
        ( List.filter
            (fun q -> q <> t && (cmask lsr q) land 1 = 1)
            [ 0; 1; 2; 3 ],
          t ))
      (int_bound 3) (int_bound 15)
  in
  let* gates = list_size (int_range 1 3) (pair gate gate) in
  let+ wirings = list_size (int_range 1 6) (pair wiring wiring) in
  List.concat_map
    (fun (ga, gb) ->
      List.map
        (fun ((ca, ta), (cb, tb)) ->
          (app ~controls:ca ga ta, app ~controls:cb gb tb))
        wirings)
    gates

let prop_commute_memo =
  QCheck2.Test.make ~name:"memoized oracle = unmemoized on random pairs"
    ~count:500 commute_pairs_gen (fun pairs ->
      let memo = Dqc.Commute.memo () in
      let wire f (x : Instruction.app) =
        { x with controls = List.map f x.controls; target = f x.target }
      in
      let cond = Instruction.cond_bit 0 true in
      List.for_all
        (fun (a, b) ->
          List.for_all
            (fun f ->
              let a = wire f a and b = wire f b in
              let expected = commute a b in
              Dqc.Commute.instrs memo (Unitary a) (Unitary b) = expected
              && Dqc.Commute.instrs memo (Conditioned (cond, a)) (Unitary b)
                 = expected)
            [ Fun.id; (fun q -> 7 + (2 * q)); (fun q -> 3 - q) ])
        pairs)

(* ------------------------------------------------------------------ *)
(* Interaction                                                        *)

let circ ~roles instrs = Circ.create ~roles ~num_bits:0 instrs
let dda = [| Circ.Data; Circ.Data; Circ.Answer |]

let test_edges () =
  let c = circ ~roles:dda [ u ~controls:[ 0 ] Gate.X 1; u ~controls:[ 0 ] Gate.X 2 ] in
  Alcotest.(check (list (pair int int))) "one data-data edge" [ (0, 1) ]
    (Dqc.Interaction.edges c)

let test_order_chain () =
  let roles = [| Circ.Data; Circ.Data; Circ.Data; Circ.Answer |] in
  let c =
    circ ~roles [ u ~controls:[ 2 ] Gate.X 1; u ~controls:[ 1 ] Gate.X 0 ]
  in
  Alcotest.(check (list int)) "topological" [ 2; 1; 0 ]
    (Dqc.Interaction.iteration_order c)

let test_order_cycle () =
  let c =
    circ ~roles:dda [ u ~controls:[ 0 ] Gate.X 1; u ~controls:[ 1 ] Gate.X 0 ]
  in
  check_bool "cyclic raises" true
    (try
       ignore (Dqc.Interaction.iteration_order c);
       false
     with Dqc.Interaction.Cyclic _ -> true)

let test_order_ancilla_last () =
  let roles = [| Circ.Data; Circ.Data; Circ.Answer; Circ.Ancilla |] in
  let c =
    circ ~roles [ u ~controls:[ 0 ] Gate.X 3; u ~controls:[ 1 ] Gate.X 3 ]
  in
  Alcotest.(check (list int)) "ancilla after controls" [ 0; 1; 3 ]
    (Dqc.Interaction.iteration_order c)

(* ------------------------------------------------------------------ *)
(* Transform                                                          *)

let bv s = Algorithms.Bv.circuit s

let test_transform_bv_structure () =
  let r = Dqc.Transform.transform (bv "101") in
  check_int "qubits" 2 (Circ.num_qubits r.circuit);
  check_int "bits" 3 (Circ.num_bits r.circuit);
  let s = Metrics.stats r.circuit in
  check_int "one measure per data qubit" 3 s.Metrics.measure;
  check_int "reset between iterations" 2 s.Metrics.reset;
  check_int "no conditioned gates in BV" 0 (Dqc.Transform.conditioned_count r);
  Alcotest.(check (list int)) "iteration order" [ 0; 1; 2 ] r.iteration_order;
  Alcotest.(check (list (pair int int))) "data bits" [ (0, 0); (1, 1); (2, 2) ]
    r.data_bit;
  Alcotest.(check (list (pair int int))) "answer phys" [ (3, 1) ] r.answer_phys;
  check_int "no violations" 0 (List.length r.violations)

let test_transform_bv_equivalence_all () =
  List.iter
    (fun s ->
      let c = bv s in
      let r = Dqc.Transform.transform c in
      check_bool ("BV_" ^ s) true (Dqc.Equivalence.equivalent c r))
    Algorithms.Bv.paper_benchmarks

let test_transform_sound_bv () =
  let c = bv "1101" in
  let r = Dqc.Transform.transform ~mode:`Sound c in
  check_bool "sound mode succeeds on BV" true (Dqc.Equivalence.equivalent c r)

let test_transform_hidden_string_recovered () =
  let s = "1011" in
  let r = Dqc.Transform.transform (bv s) in
  let d = Sim.Exact.register_distribution r.circuit in
  let expected = Algorithms.Bv.expected_outcome s in
  Alcotest.(check (float 1e-9)) "BV deterministic" 1. (Sim.Dist.prob d expected)

let test_transform_rejects_multi_control () =
  let roles = [| Circ.Data; Circ.Data; Circ.Answer |] in
  let c = circ ~roles [ u ~controls:[ 0; 1 ] Gate.X 2 ] in
  check_bool "toffoli rejected" true
    (try
       ignore (Dqc.Transform.transform c);
       false
     with Dqc.Transform.Not_transformable _ -> true)

let test_transform_rejects_measured_input () =
  let c =
    Circ.create ~roles:[| Circ.Data; Circ.Answer |] ~num_bits:1
      [ Instruction.Measure { qubit = 0; bit = 0 } ]
  in
  check_bool "measurement rejected" true
    (try
       ignore (Dqc.Transform.transform c);
       false
     with Dqc.Transform.Not_transformable _ -> true)

let test_transform_no_data_qubits () =
  let c = Circ.create ~roles:[| Circ.Answer |] ~num_bits:0 [ u Gate.H 0 ] in
  check_bool "no data qubits" true
    (try
       ignore (Dqc.Transform.transform c);
       false
     with Dqc.Transform.Not_transformable _ -> true)

let test_transform_dyn1_has_violations () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let dj = Algorithms.Dj.circuit o in
  let r = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
  check_bool "violations recorded" true (List.length r.violations > 0);
  let v = List.hd r.violations in
  check_bool "jumped over non-commuting gates" true
    (List.length v.Dqc.Transform.jumped_over > 0)

let test_transform_sound_rejects_dyn1 () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let dj = Algorithms.Dj.circuit o in
  check_bool "sound mode refuses unsound schedule" true
    (try
       ignore (Dqc.Toffoli_scheme.transform ~mode:`Sound Dqc.Toffoli_scheme.Dynamic_1 dj);
       false
     with Dqc.Transform.Not_transformable _ -> true)

let test_transform_answer_answer_gate () =
  (* gates between two answer qubits stay quantum *)
  let roles = [| Circ.Data; Circ.Answer; Circ.Answer |] in
  let c =
    circ ~roles
      [ u Gate.H 0; u ~controls:[ 0 ] Gate.X 1; u ~controls:[ 1 ] Gate.X 2 ]
  in
  let r = Dqc.Transform.transform c in
  check_bool "equivalent" true (Dqc.Equivalence.equivalent c r);
  check_int "three qubits out" 3 (Circ.num_qubits r.circuit)

let test_transform_conditioned_gate_value () =
  (* a data-data CX becomes a conditioned X on the later iteration *)
  let roles = [| Circ.Data; Circ.Data; Circ.Answer |] in
  let c =
    circ ~roles
      [ u Gate.X 0; u ~controls:[ 0 ] Gate.X 1; u ~controls:[ 1 ] Gate.X 2 ]
  in
  let r = Dqc.Transform.transform c in
  check_int "one conditioned gate" 1 (Dqc.Transform.conditioned_count r);
  check_bool "equivalent" true (Dqc.Equivalence.equivalent c r);
  (* X(q0) flips q0 to 1, so the CX fires, q1 = 1, answer = 1 *)
  let d = Dqc.Equivalence.dynamic_distribution r in
  Alcotest.(check (float 1e-9)) "registers 111" 1. (Sim.Dist.prob d 0b111)

(* Algorithm 1's outputs pinned byte for byte.  transform_golden.txt
   holds one line per case: the case name, then the MD5 of the
   result's QASM text, data bits, answer map, iteration order, slot
   count and violations, or the exception the case raises.  The cases
   are BV_1 and the Table I BV strings, the Table II oracles under
   dyn1, dyn2, dyn2 with fresh and with global ancillas and direct
   MCT, the generated MCT oracles under the four substitutions, and
   the E11 inputs at 1 to 4 slots, each in both modes. *)
let golden_ints l = String.concat "," (List.map string_of_int l)

let golden_digest (r : Dqc.Transform.result) =
  let b = Buffer.create 4096 in
  let pairs l = golden_ints (List.concat_map (fun (x, y) -> [ x; y ]) l) in
  Buffer.add_string b (Qasm.to_string r.circuit);
  Printf.bprintf b "data %s\nanswers %s\norder %s\nslots %d\n"
    (pairs r.data_bit) (pairs r.answer_phys)
    (golden_ints r.iteration_order)
    r.slots;
  List.iter
    (fun (v : Dqc.Transform.violation) ->
      Printf.bprintf b "violation %d %s over %s\n" v.iteration
        (Instruction.to_string v.emitted)
        (String.concat "; " (List.map Instruction.to_string v.jumped_over)))
    r.violations;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_modes = [ ("alg1", `Algorithm1); ("sound", `Sound) ]

(* an oracle's DJ circuit under each Toffoli substitution, named
   DJ(<oracle>)/<scheme> *)
let golden_prepared (o : Algorithms.Oracle.t) =
  let c = Algorithms.Dj.circuit o in
  List.map
    (fun s ->
      ( Printf.sprintf "DJ(%s)/%s" o.name (Dqc.Toffoli_scheme.to_string s),
        Dqc.Toffoli_scheme.prepare s c ))
    Dqc.Toffoli_scheme.
      [
        Dynamic_1; Dynamic_2; Dynamic_2_shared `Fresh; Dynamic_2_shared `Global;
      ]

let golden_cases () =
  let both name run =
    List.map (fun (label, mode) -> (name ^ "/" ^ label, run ~mode)) golden_modes
  in
  let single ?(mct = false) name c =
    both name (fun ~mode () -> Dqc.Transform.transform ~mode ~mct c)
  in
  let oracle (o : Algorithms.Oracle.t) =
    List.concat_map (fun (name, c) -> single name c) (golden_prepared o)
    (* direct MCT on the generated C^nX oracles alone takes seconds *)
    @
    if List.memq o Algorithms.Dj_toffoli.oracles then
      single ~mct:true
        ("DJ(" ^ o.name ^ ")/direct-mct")
        (Algorithms.Dj.circuit o)
    else []
  in
  List.concat_map
    (fun s -> single ("BV_" ^ s) (bv s))
    ("1" :: Algorithms.Bv.paper_benchmarks)
  @ List.concat_map oracle Testkit.table2_and_generated_oracles
  @ List.concat_map
      (fun (benchmark, scheme, _, c) ->
        List.concat_map
          (fun slots ->
            both
              (Printf.sprintf "E11:%s/%s/slots=%d" benchmark scheme slots)
              (fun ~mode () -> Dqc.Transform.transform ~mode ~slots c))
          [ 1; 2; 3; 4 ])
      (Report.Experiments.slots_inputs ())

let golden_line (name, run) =
  name ^ " "
  ^
  match run () with
  | r -> golden_digest r
  | exception Dqc.Transform.Not_transformable msg ->
      "raises Not_transformable " ^ msg
  | exception Dqc.Interaction.Cyclic qs -> "raises Cyclic " ^ golden_ints qs

let golden_file ?(file = "transform_golden.txt") () =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* the golden outcome of one case, by name *)
let golden_entry name =
  let prefix = name ^ " " in
  match List.find_opt (String.starts_with ~prefix) (golden_file ()) with
  | Some line ->
      let n = String.length prefix in
      String.sub line n (String.length line - n)
  | None -> Alcotest.failf "no golden entry %s" name

let rec compare_golden = function
  | [], [] -> ()
  | e :: es, a :: rest ->
      if e = a then compare_golden (es, rest)
      else
        Alcotest.failf "first differing case:\n  golden %s\n  now    %s" e a
  | e :: _, [] -> Alcotest.failf "case no longer produced: %s" e
  | [], a :: _ -> Alcotest.failf "case not in the golden file: %s" a

let test_transform_golden () =
  compare_golden (golden_file (), List.map golden_line (golden_cases ()))

(* Certifier verdicts pinned byte for byte.  certify_golden.txt holds
   two lines for every 1-slot transform of the Table II and generated
   MCT oracles under the four substitutions, in both modes: the verdict
   on the result as compiled, then on the result after
   Certifier.corrupt.  Inputs that do not transform have no line. *)
let certify_golden_lines () =
  List.concat_map
    (fun (o : Algorithms.Oracle.t) ->
      List.concat_map
        (fun (name, c) ->
          List.concat_map
            (fun (label, mode) ->
              match Dqc.Transform.transform ~mode c with
              | exception
                  (Dqc.Transform.Not_transformable _ | Dqc.Interaction.Cyclic _)
                ->
                  []
              | r ->
                  let line suffix circuit =
                    Printf.sprintf "%s/%s%s %s" name label suffix
                      (Verify.Certify.verdict_to_string
                         (Dqc.Certifier.certify c { r with circuit }))
                  in
                  [
                    line "" r.circuit;
                    line "/corrupt" (Dqc.Certifier.corrupt r.circuit);
                  ])
            golden_modes)
        (golden_prepared o))
    Testkit.table2_and_generated_oracles

let test_certify_golden () =
  compare_golden
    (golden_file ~file:"certify_golden.txt" (), certify_golden_lines ())

(* Every normalized path sum pinned byte for byte.  pathsum_golden.txt
   holds one line per circuit: its name, the rule counts of
   Reduce.normalize, then the MD5 of the normalized sum as printed, or
   the exception symbolic execution raises.  That pins symexec's
   variable numbering and every rewrite reduction picks.  The circuits
   are the traditional and transformed sides of every
   certify_golden.txt case, the Table I BV strings and their dyn1 and
   dyn2 transforms, DJ(XOR_16) under dyn1 and dyn2, and GROVER-3,
   SIMON-1011 and QPE-4 before and after Reuse.rewire. *)
let pathsum_golden_line (name, c) =
  name ^ " "
  ^
  match Verify.Symexec.run c with
  | ps ->
      let ps, (st : Verify.Reduce.stats) = Verify.Reduce.normalize ps in
      Printf.sprintf "elim=%d hh=%d omega=%d subst=%d %s" st.elim st.hh
        st.omega st.subst
        (Digest.to_hex (Digest.string (Verify.Pathsum.to_string ps)))
  | exception Verify.Symexec.Unsupported msg -> "raises Unsupported " ^ msg

let pathsum_golden_cases () =
  let certify_cases =
    List.concat_map
      (fun (o : Algorithms.Oracle.t) ->
        List.concat_map
          (fun (name, c) ->
            (name ^ "/traditional", c)
            :: List.concat_map
                 (fun (label, mode) ->
                   match Dqc.Transform.transform ~mode c with
                   | exception
                       ( Dqc.Transform.Not_transformable _
                       | Dqc.Interaction.Cyclic _ ) ->
                       []
                   | r ->
                       [
                         (name ^ "/" ^ label, r.circuit);
                         ( name ^ "/" ^ label ^ "/corrupt",
                           Dqc.Certifier.corrupt r.circuit );
                       ])
                 golden_modes)
          (golden_prepared o))
      Testkit.table2_and_generated_oracles
  in
  let schemes name c =
    List.map
      (fun s ->
        ( name ^ "/" ^ Dqc.Toffoli_scheme.to_string s,
          (Dqc.Toffoli_scheme.transform s c).circuit ))
      Dqc.Toffoli_scheme.[ Dynamic_1; Dynamic_2 ]
  in
  let reuse =
    List.concat_map
      (fun (name, c) ->
        [ (name, c); (name ^ "/reuse", fst (Dqc.Reuse.rewire c)) ])
      [
        ("GROVER-3", Algorithms.Grover.measured ~n:3 ~marked:5);
        ("SIMON-1011", Algorithms.Simon.measured_circuit "1011");
        ("QPE-4", Algorithms.Qpe.kitaev ~bits:4 ~phase:(3. /. 8.));
      ]
  in
  certify_cases
  @ List.concat_map
      (fun s ->
        let name = "BV_" ^ s and c = bv s in
        (name, c) :: schemes name c)
      Algorithms.Bv.paper_benchmarks
  @ schemes "DJ(XOR_16)"
      (Algorithms.Dj.circuit (Algorithms.Mct_bench.xor_n 16))
  @ reuse

let test_pathsum_golden () =
  compare_golden
    ( golden_file ~file:"pathsum_golden.txt" (),
      List.map pathsum_golden_line (pathsum_golden_cases ()) )

(* Every compile-corpus output pinned byte for byte.  compile_golden.txt
   holds one line per Testkit.compile_corpus item: its name, the MD5 of
   the output circuit's QASM text, its qubits, gates and depth, whether
   it was certified, its iteration and violation counts, and the MD5 of
   the notes its passes recorded.  The pass events are left out. *)
let compile_golden_line (name, options, c) =
  let o = Dqc.Pipeline.compile ~options c in
  let md5 s = Digest.to_hex (Digest.string s) in
  Printf.sprintf
    "%s %s qubits=%d gates=%d depth=%d certified=%b iterations=%d \
     violations=%d notes=%s"
    name
    (md5 (Qasm.to_string o.circuit))
    o.qubits o.gates o.depth o.certified o.iterations o.violations
    (md5 (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) o.notes)))

let test_compile_golden () =
  compare_golden
    ( golden_file ~file:"compile_golden.txt" (),
      List.map compile_golden_line (Testkit.compile_corpus ()) )

(* ------------------------------------------------------------------ *)
(* Direct MCT (future work)                                           *)

let test_direct_mct_structure () =
  let dj = Algorithms.Dj.circuit (Algorithms.Mct_bench.and_n 3) in
  let r = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Direct_mct dj in
  check_int "two qubits" 2 (Circ.num_qubits r.circuit);
  check_int "three iterations" 3 (List.length r.iteration_order);
  check_int "single conditioned gate" 1 (Dqc.Transform.conditioned_count r);
  (* the C^3X lands in the last control's iteration: two measured
     controls become a 2-bit conjunction, the live one stays quantum *)
  let conj_width, quantum_controls =
    List.fold_left
      (fun (w, qc) (i : Instruction.t) ->
        match i with
        | Conditioned (c, a) ->
            (max w (List.length c.Instruction.bits),
             max qc (List.length a.Instruction.controls))
        | Unitary _ | Measure _ | Reset _ | Barrier _ -> (w, qc))
      (0, 0)
      (Circ.instructions r.circuit)
  in
  check_int "conjunction over 2 bits" 2 conj_width;
  check_int "one live quantum control" 1 quantum_controls

let test_direct_mct_requires_flag () =
  let dj = Algorithms.Dj.circuit (Algorithms.Mct_bench.and_n 3) in
  check_bool "rejected without ~mct" true
    (try
       ignore (Dqc.Transform.transform dj);
       false
     with Dqc.Transform.Not_transformable _ -> true);
  (* and accepted with the flag *)
  let r = Dqc.Transform.transform ~mct:true dj in
  check_int "accepted with ~mct" 2 (Circ.num_qubits r.circuit)

let test_mct_reduction_routes_transform () =
  (* V-chain reduction shaped for the DQC lets both paper schemes
     handle C^4X oracles *)
  let dj = Algorithms.Dj.circuit (Algorithms.Mct_bench.and_n 4) in
  List.iter
    (fun scheme ->
      let r = Dqc.Toffoli_scheme.transform scheme dj in
      check_int
        (Dqc.Toffoli_scheme.to_string scheme ^ " two qubits")
        2
        (Circ.num_qubits r.circuit))
    [ Dqc.Toffoli_scheme.Dynamic_1; Dqc.Toffoli_scheme.Dynamic_2 ]

let test_direct_mct_basis_state_exact () =
  (* without the DJ Hadamards the data qubits stay in basis states, the
     unsound-reorder hazard disappears, and the direct MCT realization
     is exactly equivalent *)
  let roles = Array.append (Array.make 3 Circ.Data) [| Circ.Answer |] in
  let c =
    Circ.create ~roles ~num_bits:0
      [
        u Gate.X 0;
        u Gate.X 1;
        u Gate.X 2;
        u ~controls:[ 0; 1; 2 ] Gate.X 3;
      ]
  in
  let r = Dqc.Transform.transform ~mct:true c in
  check_bool "exact on basis inputs" true (Dqc.Equivalence.equivalent c r);
  let d = Dqc.Equivalence.dynamic_distribution ~relative_to:c r in
  Alcotest.(check (float 1e-9)) "fires: register 1111" 1.
    (Sim.Dist.prob d 0b1111)

(* ------------------------------------------------------------------ *)
(* Equivalence                                                        *)

let test_equivalence_detects_difference () =
  let roles = [| Circ.Data; Circ.Answer |] in
  let c = circ ~roles [ u Gate.X 0; u ~controls:[ 0 ] Gate.X 1 ] in
  let r = Dqc.Transform.transform c in
  check_bool "equal" true (Dqc.Equivalence.equivalent c r);
  (* tamper with the dynamic circuit: flip the answer *)
  let tampered =
    { r with Dqc.Transform.circuit = Circ.append r.circuit [ u Gate.X 1 ] }
  in
  check_bool "tamper detected" false (Dqc.Equivalence.equivalent c tampered);
  Alcotest.(check (float 1e-9)) "tv = 1" 1. (Dqc.Equivalence.tv_distance c tampered)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                           *)

let test_pipeline_default () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "OR") in
  let out = Dqc.Pipeline.compile (Algorithms.Dj.circuit o) in
  check_int "qubits" 2 out.Dqc.Pipeline.qubits;
  (* the symbolic certifier now supersedes the numeric check; either
     evidence level proves dyn2 exact here *)
  (match (out.Dqc.Pipeline.certified, out.Dqc.Pipeline.tv) with
  | true, None -> ()
  | _, Some tv -> check_bool "dyn2 exact" true (tv < 1e-9)
  | false, None -> Alcotest.fail "expected certified or tv");
  check_bool "gates counted" true (out.Dqc.Pipeline.gates > 20);
  check_bool "renders" true
    (String.length (Dqc.Pipeline.to_string out) > 40)

let test_pipeline_sound_multislot_native () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let options =
    Dqc.Pipeline.Options.(
      default
      |> with_scheme Dqc.Toffoli_scheme.Dynamic_1
      |> with_mode `Sound |> with_slots 2 |> with_native true
      |> with_peephole true)
  in
  let out = Dqc.Pipeline.compile ~options (Algorithms.Dj.circuit o) in
  check_int "three qubits" 3 out.Dqc.Pipeline.qubits;
  check_int "no violations" 0 out.Dqc.Pipeline.violations;
  (match out.Dqc.Pipeline.tv with
  | Some tv -> check_bool "exact" true (tv < 1e-9)
  | None -> Alcotest.fail "expected a tv check");
  check_bool "native basis" true
    (Transpile.Basis.is_native out.Dqc.Pipeline.circuit)

let test_pipeline_direct_mct () =
  let dj = Algorithms.Dj.circuit (Algorithms.Mct_bench.and_n 3) in
  let options =
    Dqc.Pipeline.Options.(
      default |> with_scheme Dqc.Toffoli_scheme.Direct_mct)
  in
  let out = Dqc.Pipeline.compile ~options dj in
  check_int "two qubits" 2 out.Dqc.Pipeline.qubits

(* ------------------------------------------------------------------ *)
(* Data slots (Transform.transform ~slots)                            *)

(* one slot is the paper's Algorithm 1: the golden entries the
   dedicated single-slot scheduler produced *)
let test_multi_slots1_matches_transform () =
  List.iter
    (fun s ->
      let name = "BV_" ^ s in
      Alcotest.(check string)
        name
        (golden_entry (name ^ "/alg1"))
        (golden_digest (Dqc.Transform.transform ~slots:1 (bv s))))
    [ "1"; "101"; "1101" ]

let test_multi_slots_bv_exact_everywhere () =
  let c = bv "1011" in
  List.iter
    (fun k ->
      let m = Dqc.Transform.transform ~mode:`Sound ~slots:k c in
      check_int "qubits" (k + 1) (Circ.num_qubits m.circuit);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "tv at k=%d" k)
        0.
        (Dqc.Equivalence.tv_distance c m))
    [ 1; 2; 3; 4 ]

let test_multi_one_extra_slot_fixes_dyn1 () =
  (* the E11 headline: dynamic-1 is sound-certified with 2 slots *)
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let prepared =
    Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_1
      (Algorithms.Dj.circuit o)
  in
  check_bool "min slots = 2" true
    (Dqc.Transform.min_exact_slots prepared = Some 2);
  let m = Dqc.Transform.transform ~mode:`Sound ~slots:2 prepared in
  check_int "no violations" 0 (List.length m.violations);
  Alcotest.(check (float 1e-9)) "exact" 0.
    (Dqc.Equivalence.tv_distance prepared m);
  (* the data-data CX stayed quantum: no conditioned gates at all *)
  let conditioned =
    List.length
      (List.filter
         (fun (i : Instruction.t) ->
           match i with
           | Conditioned _ -> true
           | Unitary _ | Measure _ | Reset _ | Barrier _ -> false)
         (Circ.instructions m.circuit))
  in
  check_int "all-quantum schedule" 0 conditioned

let test_multi_full_width_is_traditional_shape () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let prepared =
    Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_1
      (Algorithms.Dj.circuit o)
  in
  let m = Dqc.Transform.transform ~mode:`Sound ~slots:99 prepared in
  (* slots clamp to the work-qubit count; no resets remain *)
  check_int "slots clamped" 2 m.slots;
  Alcotest.(check (float 1e-9)) "exact" 0.
    (Dqc.Equivalence.tv_distance prepared m)

let test_multi_cyclic_needs_width () =
  let a, _ = Algorithms.Arithmetic.adder 2 in
  let prepared = Decompose.Pass.substitute_toffoli `Barenco a in
  (* slots = 1 propagates the cyclic failure *)
  check_bool "k=1 cyclic" true
    (try
       ignore (Dqc.Transform.transform ~slots:1 prepared);
       false
     with Dqc.Interaction.Cyclic _ -> true);
  (* full width schedules it exactly *)
  match Dqc.Transform.min_exact_slots prepared with
  | Some k ->
      check_bool "needs most of the register" true (k >= 4);
      let m = Dqc.Transform.transform ~mode:`Sound ~slots:k prepared in
      Alcotest.(check (float 1e-9)) "exact" 0.
        (Dqc.Equivalence.tv_distance prepared m)
  | None -> Alcotest.fail "expected a certified width"

let test_multi_direct_mct_width () =
  (* the sound schedule of a C^nX needs every control co-live *)
  let dj = Algorithms.Dj.circuit (Algorithms.Mct_bench.and_n 3) in
  check_bool "all controls live" true
    (Dqc.Transform.min_exact_slots ~mct:true dj = Some 3);
  let m = Dqc.Transform.transform ~mode:`Sound ~mct:true ~slots:3 dj in
  Alcotest.(check (float 1e-9)) "exact" 0.
    (Dqc.Equivalence.tv_distance dj m)

let test_multi_invalid_slots () =
  check_bool "slots 0" true
    (try
       ignore (Dqc.Transform.transform ~slots:0 (bv "11"));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)

let test_analysis_verdicts () =
  let is = function
    | Dqc.Analysis.Exact_certified -> "certified"
    | Dqc.Analysis.Exact_observed -> "observed"
    | Dqc.Analysis.Approximate _ -> "approximate"
    | Dqc.Analysis.Untransformable _ -> "untransformable"
  in
  let verdict c = is (Dqc.Analysis.analyze c).Dqc.Analysis.verdict in
  Alcotest.(check string) "BV certified" "certified"
    (verdict (Algorithms.Bv.circuit "101"));
  let dj = Testkit.dj_and () in
  Alcotest.(check string) "dyn1 approximate" "approximate"
    (verdict (Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_1 dj));
  Alcotest.(check string) "dyn2 observed" "observed"
    (verdict (Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_2 dj));
  let adder, _ = Algorithms.Arithmetic.adder 2 in
  Alcotest.(check string) "adder untransformable" "untransformable"
    (verdict (Decompose.Pass.substitute_toffoli `Barenco adder))

let test_analysis_report_fields () =
  let r = Dqc.Analysis.analyze (Algorithms.Bv.circuit "1101") in
  check_int "data" 4 r.Dqc.Analysis.data_qubits;
  check_int "answers" 1 r.Dqc.Analysis.answer_qubits;
  check_bool "acyclic" false r.Dqc.Analysis.cyclic;
  check_bool "savings" true (r.Dqc.Analysis.qubit_savings = Some 3);
  check_bool "renders" true
    (String.length (Dqc.Analysis.to_string r) > 40);
  check_bool "min slots" true (r.Dqc.Analysis.min_exact_slots = Some 1)

let test_analysis_min_slots_dyn1 () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let prepared =
    Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_1
      (Algorithms.Dj.circuit o)
  in
  let r = Dqc.Analysis.analyze prepared in
  check_bool "dyn1 exact from 2" true (r.Dqc.Analysis.min_exact_slots = Some 2)

(* ------------------------------------------------------------------ *)
(* Toffoli_scheme                                                     *)

let test_scheme_to_string () =
  Alcotest.(check string) "dyn1" "dynamic-1"
    (Dqc.Toffoli_scheme.to_string Dqc.Toffoli_scheme.Dynamic_1);
  Alcotest.(check string) "dyn2" "dynamic-2"
    (Dqc.Toffoli_scheme.to_string Dqc.Toffoli_scheme.Dynamic_2);
  Alcotest.(check string) "global" "dynamic-2(global)"
    (Dqc.Toffoli_scheme.to_string (Dqc.Toffoli_scheme.Dynamic_2_shared `Global))

let test_scheme_prepare () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let dj = Algorithms.Dj.circuit o in
  let p1 = Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_1 dj in
  check_int "dyn1 keeps qubit count" 3 (Circ.num_qubits p1);
  let p2 = Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Dynamic_2 dj in
  check_int "dyn2 adds ancilla" 4 (Circ.num_qubits p2);
  let pt = Dqc.Toffoli_scheme.prepare Dqc.Toffoli_scheme.Traditional dj in
  check_bool "traditional unchanged" true (Circ.equal dj pt)

let test_scheme_traditional_transform_raises () =
  let o = Option.get (Algorithms.Dj_toffoli.oracle_by_name "AND") in
  let dj = Algorithms.Dj.circuit o in
  Alcotest.check_raises "traditional"
    (Invalid_argument "Toffoli_scheme.transform: Traditional") (fun () ->
      ignore (Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Traditional dj))

let test_dyn2_exact_for_two_input_oracles () =
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      if o.arity = 2 then begin
        let dj = Algorithms.Dj.circuit o in
        let r = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_2 dj in
        check_bool (o.name ^ " dyn2 exact") true (Dqc.Equivalence.equivalent dj r)
      end)
    Algorithms.Dj_toffoli.oracles

let test_dyn1_inexact () =
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      let dj = Algorithms.Dj.circuit o in
      let r = Dqc.Toffoli_scheme.transform Dqc.Toffoli_scheme.Dynamic_1 dj in
      check_bool (o.name ^ " dyn1 deviates") true
        (Dqc.Equivalence.tv_distance dj r > 0.1))
    Algorithms.Dj_toffoli.oracles

(* qcheck: Testkit's draws on up to 4 qubits, their unitary part laid
   out as a BV/DJ circuit: qubits 0-2 data, qubit 3 the answer.  A
   one-qubit gate stays on a data qubit, and on the answer if
   [answer_gates]; a controlled gate keeps one control from the data
   qubits and lands on the answer as [onto] its gate.  The draws run
   to 45 and 30 instructions to put 5.6 and 4.1 gates on the answer on
   average. *)
let oracle_shaped ~answer_gates ~onto c =
  let instrs =
    List.filter_map
      (fun (i : Instruction.t) ->
        match i with
        | Unitary { gate; controls = []; target } ->
            if target < 3 || answer_gates then Some (u gate target) else None
        | Unitary { gate; controls; target } ->
            let control = List.find (fun q -> q < 3) (controls @ [ target ]) in
            Some (u ~controls:[ control ] (onto gate) 3)
        | Conditioned _ | Measure _ | Reset _ | Barrier _ -> None)
      (Circ.instructions (Testkit.unitary_part c))
  in
  Circ.create ~roles:[| Circ.Data; Circ.Data; Circ.Data; Circ.Answer |]
    ~num_bits:0 instrs

(* Oracle-shaped: gates on the answer only from data qubits, and only
   X-type ones (X, V, Vdg, Rx; any other gate becomes an X), the
   commuting family real oracles use: these transform exactly. *)
let prop_oracle_shaped_exact =
  Testkit.circuit_test ~name:"random oracle-shaped circuits transform exactly"
    ~count:60 ~max_qubits:4 ~max_instrs:45 (fun c ->
      let c =
        oracle_shaped ~answer_gates:false
          ~onto:(function[@warning "-4"]
            | (Gate.X | V | Vdg | Rx _) as g -> g | _ -> Gate.X)
          c
      in
      Dqc.Transform.transform c |> Dqc.Equivalence.equivalent c)

(* Any gate onto the answer, and one-qubit gates on it mid-stream, may
   be unsound under Algorithm 1 — but zero recorded violations must
   imply exact equivalence, and sound mode, when it succeeds, must be
   exact. *)
let any_shaped = oracle_shaped ~answer_gates:true ~onto:Fun.id

let prop_no_violations_implies_exact =
  Testkit.circuit_test ~name:"zero violations implies exact equivalence"
    ~count:60 ~max_qubits:4 ~max_instrs:30 (fun c ->
      let c = any_shaped c in
      let r = Dqc.Transform.transform c in
      r.violations <> [] || Dqc.Equivalence.equivalent c r)

let prop_sound_mode_exact =
  Testkit.circuit_test ~name:"sound mode success implies exact equivalence"
    ~count:60 ~max_qubits:4 ~max_instrs:30 (fun c ->
      let c = any_shaped c in
      match Dqc.Transform.transform ~mode:`Sound c with
      | r -> Dqc.Equivalence.equivalent c r
      | exception Dqc.Transform.Not_transformable _ -> true)

(* Transform outputs must satisfy the full DQC lint gate: at most one
   live data qubit, answer qubits never reset, no use-after-measure. *)
let test_transform_outputs_lint_clean () =
  let check name c =
    let r = Dqc.Transform.transform c in
    let rep = Lint.run ~passes:(Lint.dqc_passes ()) r.Dqc.Transform.circuit in
    Alcotest.(check int) (name ^ ": error diagnostics") 0 rep.Lint.errors
  in
  check "BV_101" (Algorithms.Bv.circuit "101");
  check "BV_110111" (Algorithms.Bv.circuit "110111");
  List.iter
    (fun (o : Algorithms.Oracle.t) ->
      check ("DJ_" ^ o.name) (Algorithms.Dj.circuit o))
    Algorithms.Dj.toffoli_free_oracles

let () =
  Alcotest.run "dqc"
    [
      ( "commute",
        [
          Alcotest.test_case "disjoint" `Quick test_commute_disjoint;
          Alcotest.test_case "shared control" `Quick test_commute_shared_control;
          Alcotest.test_case "negative" `Quick test_commute_negative;
          Alcotest.test_case "same target" `Quick
            test_commute_same_target_compatible;
          Alcotest.test_case "diagonal fast path" `Quick
            test_commute_diagonal_fast_path;
          Alcotest.test_case "measure conservative" `Quick
            test_commute_instrs_measure;
          Alcotest.test_case "conditioned pairs" `Quick
            test_commute_conditioned_pairs;
          QCheck_alcotest.to_alcotest prop_commute_memo;
        ] );
      ( "interaction",
        [
          Alcotest.test_case "edges" `Quick test_edges;
          Alcotest.test_case "chain order" `Quick test_order_chain;
          Alcotest.test_case "cycle" `Quick test_order_cycle;
          Alcotest.test_case "ancilla last" `Quick test_order_ancilla_last;
        ] );
      ( "transform",
        [
          Alcotest.test_case "BV structure" `Quick test_transform_bv_structure;
          Alcotest.test_case "BV equivalence (all paper strings)" `Slow
            test_transform_bv_equivalence_all;
          Alcotest.test_case "sound mode on BV" `Quick test_transform_sound_bv;
          Alcotest.test_case "hidden string recovered" `Quick
            test_transform_hidden_string_recovered;
          Alcotest.test_case "rejects multi-control" `Quick
            test_transform_rejects_multi_control;
          Alcotest.test_case "rejects measured input" `Quick
            test_transform_rejects_measured_input;
          Alcotest.test_case "rejects no-data" `Quick test_transform_no_data_qubits;
          Alcotest.test_case "dyn1 violations" `Quick
            test_transform_dyn1_has_violations;
          Alcotest.test_case "sound rejects dyn1" `Quick
            test_transform_sound_rejects_dyn1;
          Alcotest.test_case "answer-answer gate" `Quick
            test_transform_answer_answer_gate;
          Alcotest.test_case "outputs lint clean" `Quick
            test_transform_outputs_lint_clean;
          Alcotest.test_case "conditioned value" `Quick
            test_transform_conditioned_gate_value;
          Alcotest.test_case "golden outputs" `Quick test_transform_golden;
          Alcotest.test_case "golden certifier verdicts" `Quick
            test_certify_golden;
          Alcotest.test_case "golden path sums" `Quick test_pathsum_golden;
        ] );
      ( "direct_mct",
        [
          Alcotest.test_case "structure" `Quick test_direct_mct_structure;
          Alcotest.test_case "requires flag" `Quick test_direct_mct_requires_flag;
          Alcotest.test_case "reduction routes" `Quick
            test_mct_reduction_routes_transform;
          Alcotest.test_case "basis-state exact" `Quick
            test_direct_mct_basis_state_exact;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "detects difference" `Quick
            test_equivalence_detects_difference;
        ] );
      ( "pipeline_properties",
        [
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make
               ~name:"pipeline dyn2 handles synthesized oracles" ~count:25
               QCheck2.Gen.(pair (int_range 2 3) (int_bound 0xFF))
               (fun (arity, table) ->
                 let truth = Algorithms.Boolean_fun.create ~arity ~table in
                 let oracle = Algorithms.Oracle.synthesize ~name:"prop" truth in
                 let dj = Algorithms.Dj.circuit oracle in
                 let out = Dqc.Pipeline.compile dj in
                 out.Dqc.Pipeline.qubits = 2
                 && (out.Dqc.Pipeline.certified
                    || match out.Dqc.Pipeline.tv with
                       | Some tv -> tv >= -1e-9 && tv <= 1. +. 1e-9
                       | None -> false)));
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "default" `Quick test_pipeline_default;
          Alcotest.test_case "sound multislot native" `Quick
            test_pipeline_sound_multislot_native;
          Alcotest.test_case "direct mct" `Quick test_pipeline_direct_mct;
          Alcotest.test_case "golden outputs" `Quick test_compile_golden;
        ] );
      ( "multi_transform",
        [
          Alcotest.test_case "slots=1 matches Transform" `Quick
            test_multi_slots1_matches_transform;
          Alcotest.test_case "BV exact at any width" `Quick
            test_multi_slots_bv_exact_everywhere;
          Alcotest.test_case "one extra slot fixes dyn1" `Quick
            test_multi_one_extra_slot_fixes_dyn1;
          Alcotest.test_case "full width" `Quick
            test_multi_full_width_is_traditional_shape;
          Alcotest.test_case "cyclic needs width" `Quick
            test_multi_cyclic_needs_width;
          Alcotest.test_case "invalid slots" `Quick test_multi_invalid_slots;
          Alcotest.test_case "direct mct width" `Quick
            test_multi_direct_mct_width;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "verdicts" `Quick test_analysis_verdicts;
          Alcotest.test_case "report fields" `Quick test_analysis_report_fields;
          Alcotest.test_case "min slots dyn1" `Quick test_analysis_min_slots_dyn1;
        ] );
      ( "toffoli_scheme",
        [
          Alcotest.test_case "to_string" `Quick test_scheme_to_string;
          Alcotest.test_case "prepare" `Quick test_scheme_prepare;
          Alcotest.test_case "traditional raises" `Quick
            test_scheme_traditional_transform_raises;
          Alcotest.test_case "dyn2 exact (2-input)" `Slow
            test_dyn2_exact_for_two_input_oracles;
          Alcotest.test_case "dyn1 inexact" `Slow test_dyn1_inexact;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_oracle_shaped_exact;
            prop_no_violations_implies_exact;
            prop_sound_mode_exact;
          ] );
    ]
