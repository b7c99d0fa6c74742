open Circuit

(** End-to-end compilation driver, built on the staged pass manager:
    {!Options} assembles a schedule of built-in {!Pass}es and
    {!compile} hands it to {!Pass_manager.run}, so every stage runs
    inside a [pipeline.pass.<name>] span with before/after metrics
    snapshots (see docs/PASSES.md).

    The default (DQC) schedule chains: Toffoli-scheme substitution ->
    dynamic transformation (single- or multi-slot) -> symbolic
    certification -> numeric equivalence evidence -> optional CV
    expansion / peephole / native lowering -> the lint gate.  With
    {!Options.with_reuse} the transform stage is replaced by the
    general causal-cone qubit-reuse pass, whose rewiring is proved
    channel-equivalent by the path-sum certifier
    ({!Verify.Certify.check_channel}) — never sampled.

    Options are built in pipeline style:
    {[
      Pipeline.Options.default
      |> Pipeline.Options.with_scheme Toffoli_scheme.Dynamic_1
      |> Pipeline.Options.with_slots 2
      |> Pipeline.Options.with_backend_policy Sim.Backend.Stabilizer
    ]} *)

(** Raised by the {!Options} builders on invalid input — a slot count
    below 1, a schedule naming an unknown pass. *)
exception Invalid_options of string

(** Raised by the [reuse_certify] gate pass when the certifier
    {e refutes} the rewiring (a genuine bug in the reuse transform):
    the payload is the counterexample detail.  An [Unknown] verdict
    does not raise — it leaves [certified] false for the caller to
    judge. *)
exception Reuse_refuted of string

(** Raised by the [optimize.*] passes when the path-sum certifier
    {e refutes} one of their rewrites — the analysis facts and the
    certifier disagree, so compilation must not continue on either
    circuit.  (An [Unknown] verdict never raises: the rewrite is
    silently reverted instead — zero sampled fallbacks.)  Equal to
    {!Optimize.Refuted}. *)
exception Optimize_refuted of string

(** The built-in passes, in listing order — what [dqc_cli passes]
    lists and what {!Options.with_passes} looks names up in. *)
val registered_passes : unit -> Pass.t list

module Options : sig
  type t

  (** [Dynamic_2], [`Algorithm1], 1 slot, CV expansion on, peephole
      off, native off, equivalence check on, certifier on,
      [Sim.Backend.Auto], lint on, reuse off, default schedule. *)
  val default : t

  val with_scheme : Toffoli_scheme.t -> t -> t
  val with_mode : [ `Algorithm1 | `Sound ] -> t -> t

  (** @raise Invalid_options when [slots < 1]. *)
  val with_slots : int -> t -> t

  val with_expand_cv : bool -> t -> t
  val with_peephole : bool -> t -> t
  val with_native : bool -> t -> t
  val with_check_equivalence : bool -> t -> t

  (** Run the symbolic equivalence certifier ({!Certifier.certify})
      ahead of the numeric checkers — on by default.  A [Proved]
      verdict is recorded as [certified] and makes the TV computations
      unnecessary; on [Unknown] or [Refuted] the numeric evidence
      chain (exact, then sampled) runs as before.  Only effective when
      [check_equivalence] is on and [slots = 1]. *)
  val with_certify : bool -> t -> t

  (** Execution backend the pipeline's shot-based stages (the sampled
      equivalence fallback beyond 12 qubits) dispatch through. *)
  val with_backend_policy : Sim.Backend.policy -> t -> t

  (** Run the lint gate on the compiled output — on by default.  An
      error-severity diagnostic makes {!compile} raise
      {!Lint.Rejected}.  DQC-transformed outputs are checked against
      {!Lint.dqc_passes} ([max_live] = slots); reuse-rewired outputs
      against {!Lint.default_passes}. *)
  val with_lint : bool -> t -> t

  (** Compile through the qubit-reuse flow instead of the Algorithm 1
      transform: prepare -> reuse -> analyze -> prune_resets ->
      reuse_certify, then the configured lowering passes and the lint
      gate.  The certifier's verdict lands in [certified]; a refuted
      rewiring raises {!Reuse_refuted}. *)
  val with_reuse : bool -> t -> t

  (** Run the certified optimizer ([optimize.fold] / [optimize.dce] /
      [optimize.affine], see {!Optimize}) ahead of peephole — off by
      default.  Every rewrite is proved channel-equivalent by the
      path-sum certifier; a refutation raises {!Optimize_refuted}. *)
  val with_optimize : bool -> t -> t

  (** Replace the derived schedule with an explicit list of built-in
      pass names ({!registered_passes}) — for experiments.  All other
      options still feed the pass context's configuration.  A custom
      pass runs in a {!Pass_manager.run} schedule instead.
      @raise Invalid_options on an unknown name. *)
  val with_passes : string list -> t -> t

  val scheme : t -> Toffoli_scheme.t
  val mode : t -> [ `Algorithm1 | `Sound ]
  val slots : t -> int
  val expand_cv : t -> bool
  val peephole : t -> bool
  val native : t -> bool
  val check_equivalence : t -> bool
  val certify : t -> bool
  val backend_policy : t -> Sim.Backend.policy
  val lint : t -> bool
  val reuse : t -> bool
  val optimize : t -> bool
  val passes : t -> string list option

  (** The pass context configuration the options denote. *)
  val config : t -> Pass.config

  (** Pass names {!compile} will execute, in order.  Derived from the
      flags, or the explicit {!with_passes} list verbatim. *)
  val schedule_names : t -> string list

  (** The resolved schedule.
      @raise Invalid_options on an unknown name. *)
  val schedule : t -> Pass.t list
end

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
      (** the symbolic certifier proved equivalence — exact evidence,
          any width, no simulation; when set, [tv] is [None] because
          the numeric checkers were unnecessary.  In the reuse flow
          this is {!Verify.Certify.check_channel}'s verdict on the
          rewiring. *)
  tv : float option;  (** None when the check was skipped *)
  tv_sampled : bool;
      (** [tv] came from {!Equivalence.sampled_tv_distance} (shot
          estimate through the execution backend) rather than exact
          branch enumeration *)
  lint : Lint.report option;
      (** the lint gate's report ([None] when disabled); always
          {!Lint.clean} when present — errors raise instead *)
  reuse : Reuse.report option;
      (** the reuse pass's report ([None] outside the reuse flow) *)
  events : Pass_manager.event list;
      (** per-pass timing and metrics snapshots, in execution order *)
  notes : (string * string) list;
      (** diagnostics the passes recorded (certifier verdicts, pruning
          counts), oldest first *)
}

(** [compile ?options traditional] runs the schedule the options
    denote.  Beyond 12 qubits the exact equivalence check is replaced
    by a sampled one through {!Sim.Backend.run} when both circuits are
    Clifford (single-slot only); otherwise it is skipped as before.
    @raise Transform.Not_transformable / Interaction.Cyclic as the
    underlying stages do.
    @raise Lint.Rejected when the lint gate (on by default) finds an
    error-severity diagnostic in the compiled output.
    @raise Reuse_refuted when the reuse flow's certification gate
    refutes the rewiring. *)
val compile : ?options:Options.t -> Circ.t -> output

val pp : Format.formatter -> output -> unit
val to_string : output -> string
