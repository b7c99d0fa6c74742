open Circuit

exception Invalid_options of string
exception Reuse_refuted of string

exception Optimize_refuted = Optimize.Refuted

let exact_check_max_qubits = 12

(* ------------------------------------------------------------------ *)
(* Built-in pass bodies.  Each is a pure ctx -> ctx function; the
   manager wraps them in [pipeline.pass.<name>] spans and counters. *)

let prepare_body (ctx : Pass.ctx) =
  match ctx.Pass.config.Pass.scheme with
  | Toffoli_scheme.Direct_mct -> ctx
  | ( Toffoli_scheme.Traditional | Toffoli_scheme.Dynamic_1
    | Toffoli_scheme.Dynamic_2 | Toffoli_scheme.Dynamic_2_shared _ ) as s ->
      let prepared = Toffoli_scheme.prepare s ctx.Pass.circuit in
      { ctx with Pass.circuit = prepared; Pass.reference = prepared }

let transform_body (ctx : Pass.ctx) =
  let config = ctx.Pass.config in
  let mct = config.Pass.scheme = Toffoli_scheme.Direct_mct in
  let r =
    Transform.transform ~mode:config.Pass.mode ~mct ~slots:config.Pass.slots
      ctx.Pass.circuit
  in
  {
    ctx with
    Pass.circuit = r.Transform.circuit;
    Pass.transformed =
      Some (if config.Pass.slots = 1 then Pass.Single r else Pass.Multi r);
    Pass.data_bit = r.Transform.data_bit;
    Pass.answer_phys = r.Transform.answer_phys;
    Pass.iterations = List.length r.Transform.iteration_order;
    Pass.violations = List.length r.Transform.violations;
  }

(* strongest evidence first: the symbolic certifier proves equivalence
   exactly, at any width, without dispatching a simulation backend;
   only when it cannot conclude does the numeric chain run *)
let certify_body (ctx : Pass.ctx) =
  match ctx.Pass.transformed with
  | Some (Pass.Single r) ->
      let verdict = Certifier.certify ctx.Pass.traditional r in
      let ctx =
        Pass.note "certify.verdict"
          (Verify.Certify.verdict_to_string verdict)
          ctx
      in
      { ctx with Pass.certified = Verify.Certify.is_proved verdict }
  | Some (Pass.Multi _) | None -> ctx

let equivalence_body (ctx : Pass.ctx) =
  if ctx.Pass.certified then ctx
  else begin
    let reference = ctx.Pass.reference in
    let small = Circ.num_qubits reference <= exact_check_max_qubits in
    match ctx.Pass.transformed with
    | Some (Pass.Single r | Pass.Multi r) ->
        if small then
          {
            ctx with
            Pass.tv = Some (Equivalence.tv_distance reference r);
            Pass.tv_sampled = false;
          }
        else if
          (* the exact evaluator is out of reach: fall back to a shot
             estimate when both sides run on the tableau *)
          Sim.Stabilizer.supports (Sim.Program.compile reference)
          && Sim.Stabilizer.supports (Sim.Program.compile r.Transform.circuit)
        then
          {
            ctx with
            Pass.tv =
              Some
                (Equivalence.sampled_tv_distance
                   ~policy:ctx.Pass.config.Pass.backend_policy reference r);
            Pass.tv_sampled = true;
          }
        else ctx
    | None -> ctx
  end

let reuse_body (ctx : Pass.ctx) =
  (* the analyzer's per-qubit reference counts (when fresh) spare the
     scheduler its own usage recount *)
  let usage =
    Option.map
      (fun (s : Lint.Resource.summary) -> s.Lint.Resource.usage_counts)
      (Pass.fresh_resources ctx)
  in
  let circuit, report = Reuse.rewire ?usage ctx.Pass.circuit in
  let ctx = { ctx with Pass.circuit; Pass.reuse = Some report } in
  if Reuse.saved report = 0 then
    Pass.note "reuse" "no retired wire could be re-hosted" ctx
  else ctx

let analyze_body (ctx : Pass.ctx) =
  match Pass.fresh_facts ctx with
  | Some _ -> ctx
  | None -> { ctx with Pass.facts = Some (Lint.Trace.run ctx.Pass.circuit) }

let analyze_resources_body (ctx : Pass.ctx) =
  match Pass.fresh_resources ctx with
  | Some _ -> ctx
  | None ->
      let trace =
        match Pass.fresh_facts ctx with
        | Some t -> t
        | None -> Lint.Trace.run ctx.Pass.circuit
      in
      let summary = Lint.Resource.analyze ~trace ctx.Pass.circuit in
      {
        ctx with
        Pass.facts = Some trace;
        Pass.resources = Some (ctx.Pass.circuit, summary);
      }

let prune_resets_body (ctx : Pass.ctx) =
  match Pass.fresh_facts ctx with
  | None -> ctx
  | Some trace ->
      let circuit, pruned = Reuse.prune_resets trace in
      if pruned = 0 then ctx
      else begin
        let reuse =
          match ctx.Pass.reuse with
          | Some r ->
              Some
                {
                  r with
                  Reuse.resets_pruned = r.Reuse.resets_pruned + pruned;
                }
          | None -> None
        in
        Pass.note "prune_resets"
          (Printf.sprintf "%d provably-redundant reset%s dropped" pruned
             (if pruned = 1 then "" else "s"))
          { ctx with Pass.circuit; Pass.reuse = reuse }
      end

(* prove the rewired circuit's outcome channel unchanged.  Try the
   strongest claim first — channel equality against the untouched
   compile input, structural comparison only — and fall back to full
   certification against the prepared reference, which is what the
   reuse step actually rewired. *)
let reuse_certify_body (ctx : Pass.ctx) =
  match ctx.Pass.reuse with
  | None -> ctx
  | Some _
    when ctx.Pass.circuit == ctx.Pass.reference
         && ctx.Pass.reference == ctx.Pass.traditional ->
      (* nothing was rewired and nothing was prepared: the output IS
         the compile input, so equality holds by reflexivity and the
         certifier has nothing to prove *)
      {
        (Pass.note "reuse.verdict" "proved: identity (no rewiring)" ctx) with
        Pass.certified = true;
      }
  | Some _ -> (
      let verdict =
        if ctx.Pass.reference == ctx.Pass.traditional then
          Verify.Certify.check_channel ctx.Pass.traditional ctx.Pass.circuit
        else begin
          let strong =
            Verify.Certify.check_channel ~max_refute_vars:0
              ctx.Pass.traditional ctx.Pass.circuit
          in
          if Verify.Certify.is_proved strong then strong
          else Verify.Certify.check_channel ctx.Pass.reference ctx.Pass.circuit
        end
      in
      let ctx =
        Pass.note "reuse.verdict"
          (Verify.Certify.verdict_to_string verdict)
          ctx
      in
      match verdict with
      | Verify.Certify.Proved _ -> { ctx with Pass.certified = true }
      | Verify.Certify.Refuted cex ->
          raise (Reuse_refuted cex.Verify.Certify.detail)
      | Verify.Certify.Unknown _ -> { ctx with Pass.certified = false })

(* the optimizer passes: certified analysis-driven rewrites.  Each
   body reuses the interpreter facts already in the context when they
   are fresh; a changed circuit invalidates them implicitly
   ([Pass.fresh_facts] compares circuits). *)
let optimize_pass family
    (runf : ?trace:Lint.Trace.t -> Circ.t -> Optimize.rewrite)
    (ctx : Pass.ctx) =
  let r = runf ?trace:(Pass.fresh_facts ctx) ctx.Pass.circuit in
  if r.Optimize.reverted then
    Pass.note
      ("optimize." ^ family)
      "reverted: certifier could not prove the rewrite" ctx
  else if not (Optimize.changed r.Optimize.stats) then ctx
  else
    Pass.note
      ("optimize." ^ family)
      (Optimize.stats_to_string r.Optimize.stats)
      { ctx with Pass.circuit = r.Optimize.circuit }

let optimize_fold_body ctx = optimize_pass "fold" Optimize.fold ctx
let optimize_dce_body ctx = optimize_pass "dce" Optimize.dce ctx
let optimize_affine_body ctx = optimize_pass "affine" Optimize.affine ctx

let expand_cv_body (ctx : Pass.ctx) =
  { ctx with Pass.circuit = Decompose.Pass.expand_cv ctx.Pass.circuit }

let peephole_body (ctx : Pass.ctx) =
  {
    ctx with
    Pass.circuit =
      Decompose.Peephole.merge_rotations
        (Decompose.Peephole.cancel_inverses ctx.Pass.circuit);
  }

let lower_native_body (ctx : Pass.ctx) =
  { ctx with Pass.circuit = Transpile.Basis.to_native ctx.Pass.circuit }

(* the lint gate: every compiled output must satisfy the structural
   invariants; an error-severity diagnostic raises [Lint.Rejected]
   rather than letting a broken circuit out.  DQC-transformed outputs
   get the DQC-discipline catalogue; reuse-rewired outputs are general
   dynamic circuits, so they get the general catalogue. *)
let lint_body (ctx : Pass.ctx) =
  let passes =
    match ctx.Pass.reuse with
    | Some _ -> Lint.default_passes
    | None -> Lint.dqc_passes ~max_live:ctx.Pass.config.Pass.slots ()
  in
  let trace = Pass.fresh_facts ctx in
  (* run-then-raise rather than [Lint.check] so the flight recorder sees
     every diagnostic before a rejection unwinds the pipeline *)
  let report = Lint.run ?trace ~passes ctx.Pass.circuit in
  if Obs.Flight.enabled () then
    List.iter
      (fun d ->
        Obs.Flight.record ~kind:"lint.diagnostic"
          [ ("diagnostic", Lint.Diagnostic.to_json d) ])
      report.Lint.diagnostics;
  if not (Lint.clean report) then raise (Lint.Rejected report);
  { ctx with Pass.lint = Some report }

let builtin_passes =
  [
    Pass.make ~name:"prepare" ~kind:Pass.Transform
      ~doc:"Toffoli-scheme substitution (Eqn 1 / Eqn 3 netlists)"
      prepare_body;
    Pass.make ~name:"transform" ~kind:Pass.Transform
      ~doc:"Algorithm 1 dynamic transformation (single- or multi-slot)"
      transform_body;
    Pass.make ~name:"certify" ~kind:Pass.Analysis
      ~doc:"symbolic path-sum certification against the compile input"
      certify_body;
    Pass.make ~name:"equivalence" ~kind:Pass.Analysis
      ~doc:"numeric TV-distance evidence (exact <= 12 qubits, else sampled)"
      equivalence_body;
    Pass.make ~name:"reuse" ~kind:Pass.Transform
      ~doc:"causal-cone qubit reuse: rewire retired wires behind resets"
      reuse_body;
    Pass.make ~name:"analyze" ~kind:Pass.Analysis
      ~doc:"abstract interpretation; shares its facts through the context"
      analyze_body;
    Pass.make ~name:"analyze.resources" ~kind:Pass.Analysis
      ~doc:
        "per-segment sparsity/resource summary (relational domain); shares \
         summary and trace through the context"
      analyze_resources_body;
    Pass.make ~name:"prune_resets" ~kind:Pass.Transform
      ~doc:"drop resets the analysis facts prove redundant"
      prune_resets_body;
    Pass.make ~name:"reuse_certify" ~kind:Pass.Gate
      ~doc:"path-sum channel certification of the reuse rewiring"
      reuse_certify_body;
    Pass.make ~name:"expand_cv" ~kind:Pass.Transform
      ~doc:"lower CV/CV-dagger to Clifford+T (Fig 6)" expand_cv_body;
    Pass.make ~name:"optimize.fold" ~kind:Pass.Transform
      ~doc:
        "fold statically-known measurement outcomes and feed-forward \
         conditions (certified)"
      optimize_fold_body;
    Pass.make ~name:"optimize.dce" ~kind:Pass.Transform
      ~doc:
        "drop dead gates, provably-redundant resets and dead wires \
         (certified)"
      optimize_dce_body;
    Pass.make ~name:"optimize.affine" ~kind:Pass.Transform
      ~doc:
        "cancel gates and controls the GF(2) affine rows prove constant \
         (certified)"
      optimize_affine_body;
    Pass.make ~name:"peephole" ~kind:Pass.Transform
      ~doc:"cancel inverse pairs and merge rotations" peephole_body;
    Pass.make ~name:"lower_native" ~kind:Pass.Transform
      ~doc:"lower to the IBM native basis {rz, sx, x, cx}"
      lower_native_body;
    Pass.make ~name:"lint" ~kind:Pass.Gate
      ~doc:"static lint gate; error diagnostics raise Lint.Rejected"
      lint_body;
  ]

let registered_passes () = builtin_passes

(* ------------------------------------------------------------------ *)
(* Options: a thin schedule builder over the built-in passes           *)

module Options = struct
  type t = {
    scheme : Toffoli_scheme.t;
    mode : [ `Algorithm1 | `Sound ];
    slots : int;
    expand_cv : bool;
    peephole : bool;
    native : bool;
    check_equivalence : bool;
    certify : bool;
    backend_policy : Sim.Backend.policy;
    lint : bool;
    reuse : bool;
    optimize : bool;
    passes : string list option;
  }

  let default =
    {
      scheme = Toffoli_scheme.Dynamic_2;
      mode = `Algorithm1;
      slots = 1;
      expand_cv = true;
      peephole = false;
      native = false;
      check_equivalence = true;
      certify = true;
      backend_policy = Sim.Backend.Auto;
      lint = true;
      reuse = false;
      optimize = false;
      passes = None;
    }

  let with_scheme scheme t = { t with scheme }
  let with_mode mode t = { t with mode }

  let with_slots slots t =
    if slots < 1 then
      raise
        (Invalid_options
           (Printf.sprintf "with_slots: %d is invalid — slots must be >= 1"
              slots));
    { t with slots }

  let with_expand_cv expand_cv t = { t with expand_cv }
  let with_peephole peephole t = { t with peephole }
  let with_native native t = { t with native }
  let with_check_equivalence check_equivalence t = { t with check_equivalence }
  let with_certify certify t = { t with certify }
  let with_backend_policy backend_policy t = { t with backend_policy }
  let with_lint lint t = { t with lint }
  let with_reuse reuse t = { t with reuse }
  let with_optimize optimize t = { t with optimize }

  let lookup name =
    match
      List.find_opt (fun (p : Pass.t) -> p.Pass.name = name) builtin_passes
    with
    | Some p -> p
    | None ->
        raise
          (Invalid_options
             (Printf.sprintf "unknown pass %S (see `dqc_cli passes`)" name))

  let with_passes names t =
    List.iter (fun name -> ignore (lookup name)) names;
    { t with passes = Some names }

  let scheme t = t.scheme
  let mode t = t.mode
  let slots t = t.slots
  let expand_cv t = t.expand_cv
  let peephole t = t.peephole
  let native t = t.native
  let check_equivalence t = t.check_equivalence
  let certify t = t.certify
  let backend_policy t = t.backend_policy
  let lint t = t.lint
  let reuse t = t.reuse
  let optimize t = t.optimize
  let passes t = t.passes

  let config t =
    {
      Pass.scheme = t.scheme;
      Pass.mode = t.mode;
      Pass.slots = t.slots;
      Pass.backend_policy = t.backend_policy;
    }

  let schedule_names t =
    match t.passes with
    | Some names -> names
    | None ->
        let opt flag names = if flag then names else [] in
        (* the optimizer slots in ahead of peephole: its rewrites are
           certified against the pre-optimize circuit, and peephole's
           syntactic cancellations then run on the smaller netlist *)
        let optimize =
          opt t.optimize [ "optimize.fold"; "optimize.dce"; "optimize.affine" ]
        in
        if t.reuse then
          [
            "prepare";
            "analyze.resources";
            "reuse";
            "analyze";
            "prune_resets";
            "reuse_certify";
          ]
          @ opt t.expand_cv [ "expand_cv" ]
          @ optimize
          @ opt t.peephole [ "peephole" ]
          @ opt t.native [ "lower_native" ]
          @ opt t.lint [ "analyze"; "lint" ]
        else
          [ "prepare"; "transform" ]
          @ opt (t.check_equivalence && t.certify) [ "certify" ]
          @ opt t.check_equivalence [ "equivalence" ]
          @ opt t.expand_cv [ "expand_cv" ]
          @ optimize
          @ opt t.peephole [ "peephole" ]
          @ opt t.native [ "lower_native" ]
          @ opt t.lint [ "lint" ]

  let schedule t = List.map lookup (schedule_names t)
end

(* ------------------------------------------------------------------ *)
(* Compilation driver                                                  *)

type output = {
  circuit : Circ.t;
  data_bit : (int * int) list;
  answer_phys : (int * int) list;
  iterations : int;
  violations : int;
  qubits : int;
  gates : int;
  depth : int;
  duration_ns : float;
  certified : bool;
  tv : float option;
  tv_sampled : bool;
  lint : Lint.report option;
  reuse : Reuse.report option;
  events : Pass_manager.event list;
  notes : (string * string) list;
}

(* A gate exception means a pass *proved* something is wrong with the
   compile; that is exactly when the flight recorder's last events
   (pass snapshots, lint diagnostics, certifier verdicts) matter, so
   dump them before the exception escapes. *)
let dump_flight_on e =
  let dump detail =
    match
      Obs.Flight.dump_on_raise ~exn_name:(Printexc.exn_slot_name e) ~detail
    with
    | Some path -> Printf.eprintf "flight record written to %s\n%!" path
    | None -> ()
  in
  match e with
  | Lint.Rejected report -> dump (Lint.summary report)
  | Reuse_refuted detail -> dump detail
  | Optimize_refuted detail -> dump detail
  | Sim.State.Zero_probability_branch { qubit; outcome } ->
      dump
        (Printf.sprintf "qubit %d, outcome %c" qubit (if outcome then '1' else '0'))
  | _ -> ()

let compile_body ~options traditional =
  Obs.with_span "pipeline.compile"
      ~attrs:
        [
          ("scheme", Toffoli_scheme.to_string (Options.scheme options));
          ("slots", string_of_int (Options.slots options));
        ]
      (fun () ->
        let schedule = Options.schedule options in
        let ctx = Pass.init ~config:(Options.config options) traditional in
        let { Pass_manager.ctx; events } = Pass_manager.run schedule ctx in
        let circuit = ctx.Pass.circuit in
        {
          circuit;
          data_bit = ctx.Pass.data_bit;
          answer_phys = ctx.Pass.answer_phys;
          iterations = ctx.Pass.iterations;
          violations = ctx.Pass.violations;
          qubits = Circ.num_qubits circuit;
          gates = Metrics.gate_count circuit;
          depth = Metrics.dynamic_depth circuit;
          duration_ns = Metrics.duration circuit;
          certified = ctx.Pass.certified;
          tv = ctx.Pass.tv;
          tv_sampled = ctx.Pass.tv_sampled;
          lint = ctx.Pass.lint;
          reuse = ctx.Pass.reuse;
          events;
          notes = List.rev ctx.Pass.notes;
        })

let compile ?(options = Options.default) traditional =
  let output =
    try compile_body ~options traditional
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      dump_flight_on e;
      Printexc.raise_with_backtrace e bt
  in
  (* compile runs on the caller's domain: publish what we recorded *)
  Obs.flush ();
  output

let pp fmt o =
  Format.fprintf fmt
    "@[<v>qubits: %d, gates: %d, depth: %d, duration: %.2f us@,\
     iterations: %d, unsound reorderings: %d@,%s@,%s"
    o.qubits o.gates o.depth
    (o.duration_ns /. 1000.)
    o.iterations o.violations
    (if o.certified then "equivalence: certified symbolically (exact proof)"
     else
       match o.tv with
       | Some tv when o.tv_sampled ->
           Printf.sprintf "sampled TV distance: %.6f" tv
       | Some tv -> Printf.sprintf "exact TV distance: %.6f" tv
       | None -> "equivalence check skipped")
    (match o.lint with
    | Some r -> "lint: " ^ Lint.summary r
    | None -> "lint: skipped");
  (match o.reuse with
  | Some r when Reuse.saved r > 0 ->
      Format.fprintf fmt "@,reuse: %d qubits saved (%d resets, %d pruned)"
        (Reuse.saved r) r.Reuse.resets_inserted r.Reuse.resets_pruned
  | Some _ -> Format.fprintf fmt "@,reuse: no qubits saved"
  | None -> ());
  Format.fprintf fmt "@]"

let to_string o = Format.asprintf "%a" pp o
