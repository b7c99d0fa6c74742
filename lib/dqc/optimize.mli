(** Certified abstract-interpretation-driven circuit optimizer.

    Three rewrite families turn the facts the static analyzer already
    proves ({!Lint.Trace} / {!Lint.Reldom} / {!Lint.Deadness}) into
    circuit rewrites:

    - {e fold}: constant-measurement folding — a measurement whose
      outcome is statically known {e and} equal to the value its
      target bit already holds is a provable no-op and is deleted
      (the "classical bit write" is the initial bit value itself);
      feed-forward conditions that provably hold become unconditional
      gates, and conditions that provably fail delete their gate;
    - {e dce}: dead-code elimination by backward
      observability-liveness ({!Lint.Deadness.dead_set}) — unitaries,
      classically conditioned uncomputations and resets that provably
      cannot influence any measured bit are removed (this subsumes the
      [dead-gate] lint criterion and additionally cancels the DQC
      ancilla-uncompute tails the linter deliberately exempts), plus
      resets of provably-|0⟩ qubits
      ({!Lint.Deadness.redundant_reset}, exactly [redundant-reset]),
      and wires left with no effectful instruction are dropped;
    - {e affine}: rewrites from the GF(2) affine row basis — a control
      the relational rows pin to |0⟩ kills its gate (a CX chain
      provably acting as identity cancels), a control pinned to |1⟩
      is dropped from the control list, and a |0⟩-fixing gate on a
      provably-|0⟩ target is deleted
      ({!Lint.Deadness.simplify_app}).

    Every sweep that changes the circuit is certified against its
    input by the path-sum channel certifier
    ({!Verify.Certify.check_channel}) — a symbolic proof over exact
    ring arithmetic, never a sampled estimate.  [Refuted] raises
    {!Refuted} (surfaced as [Pipeline.Optimize_refuted]); [Unknown]
    {e reverts} the sweep, so an unproved rewrite is never applied.

    Telemetry: an [optimize.<family>] span per sweep, counters
    [optimize.removed.{gates,resets,measures}], and one
    [optimize.rewrite] flight event per accepted sweep carrying the
    gate-count and dynamic-depth deltas. *)

open Circuit

(** The certifier refuted a rewrite: the optimizer (or the analysis
    facts it consumed) is wrong, and compilation must not continue on
    either circuit.  Re-exported as [Pipeline.Optimize_refuted]. *)
exception Refuted of string

type stats = {
  gates_removed : int;
      (** unitary applications deleted outright (dead or
          provably-identity), plus conditioned gates whose condition
          provably fails *)
  uncomputes_removed : int;
      (** classically conditioned gates removed as unobservable — the
          DQC ancilla-uncompute idiom the [dead-gate] linter exempts *)
  resets_removed : int;
  measures_removed : int;
  conds_resolved : int;  (** conditions proved to hold: gate made plain *)
  controls_dropped : int;  (** provably-|1⟩ controls removed *)
  wires_removed : int;  (** qubit wires left without any instruction *)
}

val zero : stats
val add : stats -> stats -> stats

(** Instructions deleted by the sweep (gates + uncomputes + resets +
    measures). *)
val removed : stats -> int

(** Anything to report at all — deletions, resolutions or dropped
    controls. *)
val changed : stats -> bool

(** One certified sweep. *)
type rewrite = {
  circuit : Circ.t;  (** the accepted circuit (input when reverted) *)
  stats : stats;  (** zero when the sweep was reverted *)
  reverted : bool;
      (** the certifier returned [Unknown]: the rewrite was discarded
          rather than trusted — never a sampled fallback *)
}

(** [fold trace] — single constant-measurement / feed-forward folding
    sweep over the circuit [trace] interpreted, certified when it
    changes that circuit.
    @raise Refuted when the certifier disproves the rewrite. *)
val fold : Lint.Trace.t -> rewrite

(** Single dead-gate / redundant-reset / dead-wire sweep. *)
val dce : Lint.Trace.t -> rewrite

(** Single affine-fact (constant-control) sweep. *)
val affine : Lint.Trace.t -> rewrite

(** Aggregate outcome of {!run}. *)
type result = {
  before : Circ.t;
  after : Circ.t;
  total : stats;
  sweeps : int;  (** fold+dce+affine rounds executed (>= 1) *)
  proved : bool;
      (** every accepted change carries a [Proved] certificate (true
          when nothing changed); [false] only records that some sweep
          was reverted on [Unknown] *)
}

(** Run fold, dce and affine to a fixpoint (bounded by [max_sweeps]
    rounds, default 4).  Each round interprets the current circuit
    once, and again after each sweep that rewrites it: a sweep that
    returns its input circuit hands its trace to the next sweep, so a
    round that changes nothing interprets once.
    @raise Refuted as the sweeps do. *)
val run : ?max_sweeps:int -> Circ.t -> result

val stats_to_string : stats -> string
