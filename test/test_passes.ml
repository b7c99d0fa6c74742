open Circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_strings = Alcotest.(check (list string))

let bv s =
  let n = String.length s in
  let roles =
    Array.init (n + 1) (fun q -> if q < n then Circ.Data else Circ.Answer)
  in
  let b = Circ.Builder.make ~roles ~num_bits:0 () in
  String.iteri
    (fun i c ->
      if c = '1' then
        Circ.Builder.add b
          (Instruction.Unitary (Instruction.app ~controls:[ i ] Gate.X n)))
    s;
  Circ.Builder.build b

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry_contents () =
  let passes = Dqc.Pipeline.registered_passes () in
  let name (p : Dqc.Pass.t) = p.Dqc.Pass.name in
  List.iter
    (fun n ->
      check_bool (n ^ " registered") true
        (List.exists (fun p -> name p = n) passes))
    [
      "prepare"; "transform"; "certify"; "equivalence"; "reuse"; "analyze";
      "analyze.resources"; "prune_resets"; "reuse_certify"; "expand_cv";
      "optimize.fold"; "optimize.dce"; "optimize.affine"; "peephole";
      "lower_native"; "lint";
    ];
  let kind_of n =
    (List.find (fun p -> name p = n) passes).Dqc.Pass.kind
  in
  check_bool "transform is a transform" true
    (kind_of "transform" = Dqc.Pass.Transform);
  check_bool "certify is an analysis" true
    (kind_of "certify" = Dqc.Pass.Analysis);
  check_bool "lint is a gate" true (kind_of "lint" = Dqc.Pass.Gate);
  check_bool "reuse_certify is a gate" true
    (kind_of "reuse_certify" = Dqc.Pass.Gate);
  List.iter
    (fun n ->
      check_bool (n ^ " is a transform") true
        (kind_of n = Dqc.Pass.Transform))
    [ "optimize.fold"; "optimize.dce"; "optimize.affine" ]

let test_schedule_names () =
  let names = Dqc.Pipeline.Options.(schedule_names default) in
  check_strings "default DQC schedule"
    [ "prepare"; "transform"; "certify"; "equivalence"; "expand_cv"; "lint" ]
    names;
  let reuse_names =
    Dqc.Pipeline.Options.(schedule_names (default |> with_reuse true))
  in
  check_strings "reuse schedule"
    [
      "prepare"; "analyze.resources"; "reuse"; "analyze"; "prune_resets";
      "reuse_certify"; "expand_cv"; "analyze"; "lint";
    ]
    reuse_names;
  (* the optimizer slots in after expand_cv, ahead of peephole *)
  let optimize_names =
    Dqc.Pipeline.Options.(
      schedule_names (default |> with_optimize true |> with_peephole true))
  in
  check_strings "optimize schedule"
    [
      "prepare"; "transform"; "certify"; "equivalence"; "expand_cv";
      "optimize.fold"; "optimize.dce"; "optimize.affine"; "peephole"; "lint";
    ]
    optimize_names

(* ------------------------------------------------------------------ *)
(* Option validation                                                   *)

let test_invalid_options () =
  (try
     ignore Dqc.Pipeline.Options.(default |> with_slots 0);
     Alcotest.fail "with_slots 0 accepted"
   with Dqc.Pipeline.Invalid_options _ -> ());
  (try
     ignore Dqc.Pipeline.Options.(default |> with_slots (-3));
     Alcotest.fail "negative slots accepted"
   with Dqc.Pipeline.Invalid_options _ -> ());
  try
    ignore Dqc.Pipeline.Options.(default |> with_passes [ "no_such_pass" ]);
    Alcotest.fail "unknown pass accepted"
  with Dqc.Pipeline.Invalid_options msg ->
    check_bool "message names the pass" true
      (String.length msg > 0
      && String.fold_left (fun acc _ -> acc) true (String.sub msg 0 1))

(* ------------------------------------------------------------------ *)
(* Determinism and telemetry                                           *)

let event_names (out : Dqc.Pipeline.output) =
  List.map
    (fun (e : Dqc.Pass_manager.event) -> e.Dqc.Pass_manager.pass)
    out.Dqc.Pipeline.events

let test_pass_ordering_deterministic () =
  let run () = Dqc.Pipeline.compile (bv "1011") in
  let a = run () and b = run () in
  check_strings "same pass sequence" (event_names a) (event_names b);
  check_strings "events match the schedule"
    Dqc.Pipeline.Options.(schedule_names default)
    (event_names a);
  check_bool "same circuit" true
    (Circ.equal a.Dqc.Pipeline.circuit b.Dqc.Pipeline.circuit)

let test_per_pass_counters () =
  let c, out =
    Obs.with_collector (fun () -> Dqc.Pipeline.compile (bv "101"))
  in
  List.iter
    (fun name ->
      check_int
        ("pipeline.pass." ^ name ^ ".runs")
        1
        (Obs.Collector.counter c ("pipeline.pass." ^ name ^ ".runs")))
    (event_names out);
  check_int "no failures" 0 (Obs.Collector.counter c "pipeline.pass.failed")

exception Boom

let test_short_circuit_on_failure () =
  let boom =
    Dqc.Pass.make ~name:"test_boom" ~kind:Dqc.Pass.Gate
      ~doc:"always fails (test only)" (fun _ -> raise Boom)
  in
  let builtin name =
    List.find
      (fun (p : Dqc.Pass.t) -> p.Dqc.Pass.name = name)
      (Dqc.Pipeline.registered_passes ())
  in
  let schedule = [ builtin "prepare"; boom; builtin "transform" ] in
  let ctx =
    Dqc.Pass.init
      ~config:Dqc.Pipeline.Options.(config default)
      (bv "11")
  in
  let c, raised =
    Obs.with_collector (fun () ->
        try
          ignore (Dqc.Pass_manager.run schedule ctx);
          false
        with Boom -> true)
  in
  check_bool "failure propagates" true raised;
  check_int "failure counted" 1 (Obs.Collector.counter c "pipeline.pass.failed");
  check_int "boom failure counted" 1
    (Obs.Collector.counter c "pipeline.pass.test_boom.failed");
  let spans =
    List.map (fun (s : Obs.Collector.span) -> s.Obs.Collector.name)
      (Obs.Collector.spans c)
  in
  check_bool "prepare ran" true (List.mem "pipeline.pass.prepare" spans);
  check_bool "transform never ran" false
    (List.mem "pipeline.pass.transform" spans)

(* ------------------------------------------------------------------ *)
(* Reuse corpus: qubit reduction, certified by the path-sum checker    *)

let reuse_options ?(scheme = Dqc.Toffoli_scheme.Traditional) () =
  let s = scheme in
  Dqc.Pipeline.Options.(default |> with_scheme s |> with_reuse true)

let check_reuse name options circuit ~expect_before ~expect_after =
  let out = Dqc.Pipeline.compile ~options circuit in
  (match out.Dqc.Pipeline.reuse with
  | None -> Alcotest.fail (name ^ ": no reuse report")
  | Some r ->
      check_int (name ^ " qubits before") expect_before
        r.Dqc.Reuse.qubits_before;
      check_int (name ^ " qubits after") expect_after r.Dqc.Reuse.qubits_after;
      check_bool (name ^ " saved > 0") true (Dqc.Reuse.saved r > 0));
  check_int (name ^ " output width") expect_after out.Dqc.Pipeline.qubits;
  check_bool (name ^ " certified, not sampled") true
    (out.Dqc.Pipeline.certified && out.Dqc.Pipeline.tv = None);
  out

let test_reuse_simon () =
  ignore
    (check_reuse "SIMON_110" (reuse_options ())
       (Algorithms.Simon.measured_circuit "110")
       ~expect_before:6 ~expect_after:4)

let test_reuse_qpe () =
  ignore
    (check_reuse "QPE_3"
       (reuse_options ())
       (Algorithms.Qpe.kitaev ~bits:3 ~phase:(3. /. 8.))
       ~expect_before:4 ~expect_after:2)

let test_reuse_grover () =
  let options =
    reuse_options ~scheme:(Dqc.Toffoli_scheme.Dynamic_2_shared `Fresh) ()
  in
  let out =
    Dqc.Pipeline.compile ~options (Algorithms.Grover.measured ~n:3 ~marked:5)
  in
  (match out.Dqc.Pipeline.reuse with
  | None -> Alcotest.fail "GROVER_3: no reuse report"
  | Some r ->
      check_bool "GROVER_3 saved > 0" true (Dqc.Reuse.saved r > 0);
      check_bool "GROVER_3 narrower" true
        (r.Dqc.Reuse.qubits_after < r.Dqc.Reuse.qubits_before));
  check_bool "GROVER_3 certified, not sampled" true
    (out.Dqc.Pipeline.certified && out.Dqc.Pipeline.tv = None)

let test_reuse_noop_when_all_live () =
  (* both qubits activate in the first instruction and stay live to the
     end: nothing ever retires, so the pass must return the input
     untouched (physically equal) and report zero savings *)
  let roles = [| Circ.Data; Circ.Data |] in
  let b = Circ.Builder.make ~roles ~num_bits:0 () in
  Circ.Builder.add b
    (Instruction.Unitary (Instruction.app ~controls:[ 0 ] Gate.X 1));
  Circ.Builder.h b 0;
  Circ.Builder.h b 1;
  let c = Circ.Builder.build b in
  let rewired, report = Dqc.Reuse.rewire c in
  check_bool "same value" true (rewired == c);
  check_int "no savings" 0 (Dqc.Reuse.saved report);
  check_int "no resets" 0 report.Dqc.Reuse.resets_inserted

let test_reuse_chains_bv_data () =
  (* the data qubits of a measured BV chain onto one wire — the paper's
     2n -> 2 reduction recovered by the general pass *)
  let n = 3 in
  let c = bv "111" in
  let measured =
    Circ.create ~roles:(Circ.roles c) ~num_bits:n
      (Circ.instructions c
      @ List.init n (fun q -> Instruction.Measure { qubit = q; bit = q }))
  in
  let rewired, report = Dqc.Reuse.rewire measured in
  check_int "2 wires" 2 (Circ.num_qubits rewired);
  check_int "saved" 2 (Dqc.Reuse.saved report)

(* ------------------------------------------------------------------ *)
(* Reset pruning                                                       *)

let test_prune_provably_zero_reset () =
  (* q0 runs X;X (provably back to |0>) and retires; q1 re-hosts on the
     freed wire.  The inserted reset is then provably redundant and the
     analysis-guided prune drops it. *)
  let roles = [| Circ.Data; Circ.Data |] in
  let b = Circ.Builder.make ~roles ~num_bits:2 () in
  Circ.Builder.x b 0;
  Circ.Builder.x b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.h b 1;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  let c = Circ.Builder.build b in
  let rewired, report = Dqc.Reuse.rewire c in
  check_int "one wire" 1 (Circ.num_qubits rewired);
  check_int "one reset inserted" 1 report.Dqc.Reuse.resets_inserted;
  let trace = Lint.Trace.run rewired in
  let pruned_circuit, pruned = Dqc.Reuse.prune_resets trace in
  check_int "reset pruned" 1 pruned;
  check_bool "no reset left" true
    (List.for_all
       (function
         | Instruction.Reset _ -> false
         | Instruction.Unitary _ | Instruction.Measure _
         | Instruction.Conditioned _ | Instruction.Barrier _ ->
             true)
       (Circ.instructions pruned_circuit));
  (* the whole flow agrees: compile reports the prune and certifies *)
  let out = Dqc.Pipeline.compile ~options:(reuse_options ()) c in
  (match out.Dqc.Pipeline.reuse with
  | None -> Alcotest.fail "no reuse report"
  | Some r -> check_int "pipeline pruned it" 1 r.Dqc.Reuse.resets_pruned);
  check_bool "certified" true out.Dqc.Pipeline.certified

(* ------------------------------------------------------------------ *)
(* QASM round-trip of reuse output                                     *)

let test_qasm_roundtrip_reuse_output () =
  (* QPE reuse output carries measure + reset on the shared wire;
     Grover's prepared form adds conditioned corrections.  Both must
     survive a serialize/parse cycle. *)
  let outputs =
    [
      ( "qpe",
        Dqc.Pipeline.compile ~options:(reuse_options ())
          (Algorithms.Qpe.kitaev ~bits:3 ~phase:(3. /. 8.)) );
      ( "grover",
        Dqc.Pipeline.compile
          ~options:
            (reuse_options ~scheme:(Dqc.Toffoli_scheme.Dynamic_2_shared `Fresh)
               ())
          (Algorithms.Grover.measured ~n:3 ~marked:5) );
    ]
  in
  List.iter
    (fun (name, (out : Dqc.Pipeline.output)) ->
      let c = out.Dqc.Pipeline.circuit in
      let parsed = Qasm.parse ~roles:(Circ.roles c) (Qasm.to_string c) in
      check_bool (name ^ " roundtrip") true (Circ.equal parsed c))
    outputs;
  let qpe = (List.assoc "qpe" outputs).Dqc.Pipeline.circuit in
  check_bool "qpe output has a reset" true
    (List.exists
       (function
         | Instruction.Reset _ -> true
         | Instruction.Unitary _ | Instruction.Measure _
         | Instruction.Conditioned _ | Instruction.Barrier _ ->
             false)
       (Circ.instructions qpe));
  (* Grover's fresh-ancilla chains are uncomputed to |0> before every
     rehosting, and the relational rows prove it: prune_resets (via
     Lint.Deadness.provably_zero) now drops every inserted reset. *)
  let grover = (List.assoc "grover" outputs).Dqc.Pipeline.circuit in
  check_bool "grover resets all provably redundant" false
    (List.exists
       (function
         | Instruction.Reset _ -> true
         | Instruction.Unitary _ | Instruction.Measure _
         | Instruction.Conditioned _ | Instruction.Barrier _ ->
             false)
       (Circ.instructions grover))

let test_qasm_roundtrip_conditioned_reuse () =
  (* a feed-forward circuit whose conditioned gate re-hosts a retired
     wire: serialization must carry measure, reset and the classical
     condition through a parse cycle unchanged *)
  let roles = [| Circ.Data; Circ.Data |] in
  let b = Circ.Builder.make ~roles ~num_bits:2 () in
  Circ.Builder.h b 0;
  Circ.Builder.measure b ~qubit:0 ~bit:0;
  Circ.Builder.conditioned b ~bit:0 Gate.X 1;
  Circ.Builder.measure b ~qubit:1 ~bit:1;
  let c = Circ.Builder.build b in
  let rewired, report = Dqc.Reuse.rewire c in
  check_int "1 wire" 1 (Circ.num_qubits rewired);
  check_int "one reset" 1 report.Dqc.Reuse.resets_inserted;
  check_bool "conditioned survives rewiring" true
    (List.exists
       (function
         | Instruction.Conditioned _ -> true
         | Instruction.Unitary _ | Instruction.Measure _
         | Instruction.Reset _ | Instruction.Barrier _ ->
             false)
       (Circ.instructions rewired));
  let parsed = Qasm.parse ~roles:(Circ.roles rewired) (Qasm.to_string rewired) in
  check_bool "roundtrip" true (Circ.equal parsed rewired);
  (* and the rewiring is a provable channel equality *)
  check_bool "certified" true
    (Verify.Certify.is_proved (Verify.Certify.check_channel c rewired))

(* ------------------------------------------------------------------ *)
(* Optimizer: diagnostics/rewrite agreement and qcheck properties      *)

(* The shared deadness queries mean the linter's diagnoses and the
   optimizer's rewrites must agree wherever their criteria coincide.
   These corpus circuits are built so they do: every wire is measured,
   no unitary precedes a reset on its own wire after its last read, and
   no conditioned gate is dead — so [dead-gate] diagnostics = dce
   [gates_removed] and [redundant-reset] diagnostics = dce
   [resets_removed]. *)
let counts_corpus =
  [
    (* two dead tail gates, one per wire *)
    ( "dead-tails",
      Circ.create ~roles:[| Circ.Data; Circ.Data |] ~num_bits:2
        [
          Instruction.Unitary (Instruction.app Gate.H 0);
          Instruction.Measure { qubit = 0; bit = 0 };
          Instruction.Unitary (Instruction.app Gate.X 0);
          Instruction.Unitary (Instruction.app Gate.H 1);
          Instruction.Measure { qubit = 1; bit = 1 };
          Instruction.Unitary (Instruction.app Gate.Z 1);
        ] );
    (* a reset of a provably-|0⟩ wire, still observed afterwards *)
    ( "redundant-reset",
      Circ.create ~roles:[| Circ.Data |] ~num_bits:2
        [
          Instruction.Unitary (Instruction.app Gate.X 0);
          Instruction.Unitary (Instruction.app Gate.X 0);
          Instruction.Measure { qubit = 0; bit = 0 };
          Instruction.Reset 0;
          Instruction.Unitary (Instruction.app Gate.H 0);
          Instruction.Measure { qubit = 0; bit = 1 };
        ] );
    (* both at once: the redundant reset precedes the dead tail gate,
       so the forward rewrite is applied before the backward sweep's
       first removal dirties the trace *)
    ( "mixed",
      Circ.create ~roles:[| Circ.Data; Circ.Data |] ~num_bits:3
        [
          Instruction.Unitary (Instruction.app Gate.X 0);
          Instruction.Unitary (Instruction.app Gate.X 0);
          Instruction.Measure { qubit = 0; bit = 0 };
          Instruction.Reset 0;
          Instruction.Unitary (Instruction.app Gate.H 0);
          Instruction.Measure { qubit = 0; bit = 1 };
          Instruction.Unitary (Instruction.app Gate.H 1);
          Instruction.Measure { qubit = 1; bit = 2 };
          Instruction.Unitary (Instruction.app Gate.X 1);
        ] );
  ]

let test_diagnostics_match_rewrites () =
  List.iter
    (fun (name, c) ->
      let report = Lint.run ~passes:(Lint.default_passes) c in
      let count pass =
        List.length
          (List.filter
             (fun (d : Lint.Diagnostic.t) -> d.Lint.Diagnostic.pass = pass)
             report.Lint.diagnostics)
      in
      let rw = Dqc.Optimize.dce c in
      check_bool (name ^ " dce proved") false rw.Dqc.Optimize.reverted;
      check_int
        (name ^ ": dead-gate diagnostics = gates removed")
        (count "dead-gate")
        rw.Dqc.Optimize.stats.Dqc.Optimize.gates_removed;
      check_int
        (name ^ ": no uncomputes in this corpus")
        0 rw.Dqc.Optimize.stats.Dqc.Optimize.uncomputes_removed;
      check_int
        (name ^ ": redundant-reset diagnostics = resets removed")
        (count "redundant-reset")
        rw.Dqc.Optimize.stats.Dqc.Optimize.resets_removed)
    counts_corpus

(* random measured circuits over 3 qubits / 3 bits exercising every
   rewrite family: constant and superposed measures, resets, feed-
   forward conditions, CX chains *)
let random_measured_gen =
  QCheck2.Gen.(
    list_size (int_range 1 10)
      (oneof
         [
           map2
             (fun g q -> Instruction.Unitary (Instruction.app g q))
             (oneofl Gate.[ H; X; Z; S ])
             (int_range 0 2);
           map2
             (fun c t ->
               let t = if c = t then (t + 1) mod 3 else t in
               Instruction.Unitary (Instruction.app ~controls:[ c ] Gate.X t))
             (int_range 0 2) (int_range 0 2);
           map2
             (fun q b -> Instruction.Measure { qubit = q; bit = b })
             (int_range 0 2) (int_range 0 2);
           map (fun q -> Instruction.Reset q) (int_range 0 2);
           map2
             (fun b q ->
               Instruction.Conditioned
                 (Instruction.cond_bit b true, Instruction.app Gate.X q))
             (int_range 0 2) (int_range 0 2);
         ]))

let roles3 = [| Circ.Data; Circ.Data; Circ.Data |]

(* enough rounds to drain any trailing chain a 10-instruction circuit
   can build, so a second run has provably nothing left to find *)
let opt ?(max_sweeps = 12) c = Dqc.Optimize.run ~max_sweeps c

let prop_optimizer_idempotent =
  QCheck2.Test.make ~name:"optimizer is idempotent" ~count:100
    random_measured_gen
    (fun instrs ->
      let c = Circ.create ~roles:roles3 ~num_bits:3 instrs in
      let first = opt c in
      let second = opt first.Dqc.Optimize.after in
      Circ.equal second.Dqc.Optimize.after second.Dqc.Optimize.before)

let prop_optimizer_monotone =
  QCheck2.Test.make
    ~name:"optimizer never increases gate count or dynamic depth" ~count:100
    random_measured_gen
    (fun instrs ->
      let c = Circ.create ~roles:roles3 ~num_bits:3 instrs in
      let r = opt c in
      Dqc.Optimize.gates_delta r >= 0 && Dqc.Optimize.depth_delta r >= 0)

(* the end-to-end guard: whatever the optimizer did — including
   deleting measurements, which leave the certifier's shared-bit
   vocabulary — the exact distribution over the full classical
   register is unchanged, and every accepted rewrite carried a Proved
   certificate (reverts are allowed, sampling never happens) *)
let prop_optimizer_preserves_register =
  QCheck2.Test.make
    ~name:"optimized circuits keep the exact register distribution"
    ~count:200 random_measured_gen
    (fun instrs ->
      let c = Circ.create ~roles:roles3 ~num_bits:3 instrs in
      let r = opt c in
      let before = Sim.Exact.register_distribution r.Dqc.Optimize.before in
      let after = Sim.Exact.register_distribution r.Dqc.Optimize.after in
      Sim.Dist.approx_equal ~eps:1e-9 before after)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "passes"
    [
      ( "registry",
        [
          Alcotest.test_case "builtin contents" `Quick test_registry_contents;
          Alcotest.test_case "schedules" `Quick test_schedule_names;
          Alcotest.test_case "invalid options" `Quick test_invalid_options;
        ] );
      ( "manager",
        [
          Alcotest.test_case "deterministic ordering" `Quick
            test_pass_ordering_deterministic;
          Alcotest.test_case "per-pass counters" `Quick test_per_pass_counters;
          Alcotest.test_case "short-circuit on failure" `Quick
            test_short_circuit_on_failure;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "simon" `Quick test_reuse_simon;
          Alcotest.test_case "qpe" `Quick test_reuse_qpe;
          Alcotest.test_case "grover" `Quick test_reuse_grover;
          Alcotest.test_case "no-op when all qubits stay live" `Quick
            test_reuse_noop_when_all_live;
          Alcotest.test_case "BV data chains onto one wire" `Quick
            test_reuse_chains_bv_data;
          Alcotest.test_case "prune provably-zero reset" `Quick
            test_prune_provably_zero_reset;
          Alcotest.test_case "qasm roundtrip" `Quick
            test_qasm_roundtrip_reuse_output;
          Alcotest.test_case "qasm roundtrip (conditioned)" `Quick
            test_qasm_roundtrip_conditioned_reuse;
        ] );
      ( "optimize",
        Alcotest.test_case "lint diagnostics match dce rewrites" `Quick
          test_diagnostics_match_rewrites
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_optimizer_idempotent;
               prop_optimizer_monotone;
               prop_optimizer_preserves_register;
             ] );
    ]
