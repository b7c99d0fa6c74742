(** Experiment runners that regenerate every table and figure of the
    paper's evaluation (Section V), printing measured values next to
    the published ones.

    - {!table1_report}: Table I — Toffoli-free circuits (BV + DJ);
    - {!table2_report}: Table II — Toffoli-based DJ circuits;
    - {!fig7_report}: Fig 7 — computational accuracy of traditional /
      dynamic-1 / dynamic-2 under 1024-shot noiseless simulation;
    - {!equivalence_report}: the §V-A functional-equivalence claim,
      checked exactly (TV distance of exact distributions).

    Conventions are documented in DESIGN.md; measured dynamic gate
    counts are taken after expanding CV/CV† with Fig 6. *)

type table1_row = {
  name : string;
  qubits_trad : int;
  qubits_dyn : int;
  gates_trad : int;
  gates_dyn : int;
  depth_trad : int;
  depth_dyn : int;
  tv : float;  (** exact TV distance traditional vs dynamic *)
  certified : bool;
      (** the symbolic certifier proved channel equality (exact, no
          simulation) *)
}

type table2_row = {
  name : string;
  qubits_trad : int;
  qubits_dyn : int;
  gates_trad : int;
  gates_dyn1 : int;
  gates_dyn2 : int;
  depth_trad : int;
  depth_dyn1 : int;
  depth_dyn2 : int;
  tv_dyn1 : float;
  tv_dyn2 : float;
  violations_dyn1 : int;
  violations_dyn2 : int;
  certified_dyn1 : bool;  (** channel-scope symbolic proof *)
  certified_dyn2 : bool;  (** channel-scope symbolic proof *)
}

type fig7_row = {
  name : string;
  accuracy_trad : float;
  accuracy_dyn1 : float;
  accuracy_dyn2 : float;
      (** 1 - TV(1024-shot empirical joint, exact ideal joint) *)
  exact_dyn1 : float;
  exact_dyn2 : float;  (** sampling-free accuracies, 1 - exact TV *)
}

type mct_row = {
  name : string;
  arity : int;
  gates_trad : int;
  direct_gates : int;
  direct_iters : int;
  direct_conditioned : int;
  direct_tv : float;
  dyn1_gates : int;
  dyn1_iters : int;
  dyn1_tv : float;
  dyn2_gates : int;
  dyn2_iters : int;
  dyn2_tv : float;
}

val table1_rows : unit -> table1_row list
val table2_rows : unit -> table2_row list
val fig7_rows : ?shots:int -> ?seed:int -> unit -> fig7_row list

(** The future-work experiment: dynamic realizations of
    multiple-control Toffoli oracles — the direct conjunctive-condition
    scheme versus the V-chain-reduction + dynamic-1/2 routes.  Every
    realization uses exactly 2 physical qubits. *)
val mct_rows : unit -> mct_row list

val table1_report : unit -> string
val table2_report : unit -> string
val fig7_report : ?shots:int -> ?seed:int -> unit -> string
val equivalence_report : unit -> string

val mct_report : unit -> string

type routing_row = {
  hidden_bits : int;
  trad_qubits : int;
  trad_gates : int;
  trad_swaps : int;  (** identity initial layout *)
  trad_swaps_placed : int;  (** greedy interaction-aware layout *)
  trad_routed_gates : int;
  dyn_qubits : int;
  dyn_gates : int;
  dyn_swaps : int;
}

(** Routing study (extension): traditional BV_1..1 routed onto a
    linear-topology device versus the 2-qubit dynamic realization,
    which never needs a SWAP — the scalability argument of DQC made
    quantitative. *)
val routing_rows : unit -> routing_row list

val routing_report : unit -> string

type duration_row = {
  benchmark : string;
  trad_us : float;
  dyn1_us : float option;  (** None for Toffoli-free benchmarks *)
  dyn2_us : float option;
  dyn_us : float option;  (** the single dynamic form, when schemes coincide *)
}

(** Wall-clock study (extension): critical-path duration under the
    device timing model of {!Circuit.Metrics.default_timing} — the
    time cost of trading qubits for mid-circuit measurement, reset and
    feed-forward. *)
val duration_rows : unit -> duration_row list

val duration_report : unit -> string

type scale_row = {
  bits : int;
  trad_tableau_qubits : int;
  dyn_tableau_qubits : int;
  dyn_gate_total : int;
  recovered : bool;  (** hidden string read back deterministically *)
  ms_per_shot : float;
}

(** Scalability study (extension): BV far beyond the statevector limit
    via the stabilizer tableau — one shot of the 2-qubit dynamic
    realization recovers an n-bit hidden string deterministically. *)
val scale_rows : unit -> scale_row list

val scale_report : unit -> string

type slots_row = {
  benchmark : string;
  scheme : string;
  trad_qubits : int;
  tv_at_1 : float;  (** Algorithm 1 at the paper's design point *)
  min_slots : int option;  (** smallest sound-certified slot count *)
  certified_qubits : int option;  (** total qubits at that point *)
}

(** The nine E11 inputs as (benchmark, scheme, traditional qubits,
    prepared circuit): the Toffoli scheme is already substituted. *)
val slots_inputs : unit -> (string * string * int * Circuit.Circ.t) list

(** E11 (extension): the qubit-accuracy frontier of the generalized
    multi-slot transformation — how many physical data qubits each
    benchmark needs before the dynamic realization is provably exact. *)
val slots_rows : unit -> slots_row list

val slots_report : unit -> string

type reuse_row = {
  name : string;
  prep : string;  (** Toffoli scheme applied before the reuse pass *)
  qubits_before : int;
  qubits_after : int;
  saved : int;
  resets : int;  (** resets inserted when re-hosting a retired wire *)
  pruned : int;  (** resets later proved redundant and dropped *)
  certified : bool;
      (** the path-sum channel certifier proved the rewiring *)
  verdict : string;  (** the certifier's verdict, verbatim *)
  reuse_ms : float;  (** CPU time inside the reuse pass *)
  certify_ms : float;  (** CPU time inside the certification gate *)
}

(** E12 (extension): the general causal-cone qubit-reuse pass
    ({!Dqc.Reuse}) over the algorithm benchmarks — Grover, Kitaev QPE,
    Simon and the Cuccaro adder (the negative control: its qubits
    interlock, so nothing retires).  Every rewiring is proved
    channel-equivalent symbolically; nothing is sampled. *)
val reuse_rows : unit -> reuse_row list

val reuse_report : unit -> string

type sparsity_row = {
  name : string;
  scheme : string;  (** traditional / dyn1 / dyn2 *)
  qubits : int;
  segments : int;  (** analyzer segments (split_prefix boundaries) *)
  clifford : bool;  (** analyzer verdict (witness-based, per segment) *)
  log2_bound : int;
      (** static peak bound on log2(nonzero amplitudes),
          {!Lint.Resource.summary.log2_bound_peak} *)
  log2_measured : int;
      (** ceil log2 of the peak nonzero-amplitude count observed while
          replaying the circuit densely over several seeds *)
  sound : bool;  (** [log2_measured <= log2_bound] *)
  engine : string;  (** what [Sim.Backend.select Auto] picks *)
  plan : string;
      (** per-segment engine plan ({!Sim.Backend.prediction}'s [plan]),
          summarized as ["all dense"], ["all sparse"] or ["k/n sparse"];
          ["-"] for a circuit without instructions *)
}

(** E13 (extension): the relational analyzer's static sparsity bounds
    against measured dense sparsity, per benchmark x scheme
    (traditional / dynamic-1 / dynamic-2) plus the adaptive-parity
    per-segment-Clifford workload.  Every row must be sound — the
    test_sparse case "differential / analyzer bounds and witnesses"
    enforces the same dominance over hundreds of random circuits. *)
val sparsity_rows : unit -> sparsity_row list

val sparsity_report : unit -> string

type optimize_row = {
  name : string;
  scheme : string;  (** dyn / traditional / dyn1 / dyn2 / reuse *)
  gates_before : int;
  gates_after : int;
  depth_before : int;  (** dynamic depth *)
  depth_after : int;
  folded : int;  (** constant measurements deleted *)
  resets_removed : int;  (** redundant or unobservable resets *)
  uncomputes : int;  (** dead conditioned uncomputations cancelled *)
  sweeps : int;
  proved : bool;  (** every accepted rewrite carried a [Proved] *)
}

(** E14 (extension): the certified optimizer ({!Dqc.Optimize}) over
    the Table I benchmarks (dynamic form), the Table II benchmarks
    (traditional / dynamic-1 / dynamic-2, after CV expansion — the
    same convention as Table II's metrics), and the reuse corpus
    compiled {e without} its reset-pruning stage so the optimizer's
    dce sweep is the one discharging the provably-redundant resets.
    Every accepted rewrite is certified by
    {!Verify.Certify.check_channel}; nothing is sampled. *)
val optimize_rows : unit -> optimize_row list

val optimize_report : unit -> string

(** One optimizer run packaged as a report row — what the corpus rows
    are built from, exposed for the CLI's single-benchmark mode.
    @raise Dqc.Optimize.Refuted as {!Dqc.Optimize.run} does. *)
val optimize_entry :
  name:string -> scheme:string -> Circuit.Circ.t -> optimize_row

(** All reports concatenated. *)
val full_report : ?shots:int -> ?seed:int -> unit -> string
