open Circuit

(** First-class execution backends behind one entry point.

    [Backend.run] replaces ad-hoc calls to the individual engines: it
    picks an execution strategy for the circuit (or honours an explicit
    [policy]), shards the shots across domains through {!Parallel} and
    returns an ordinary {!Runner.histogram}.

    Backends:
    - {e dense statevector} — the general engine, one replay per shot,
      accelerated by the shared-prefix cache (see {!run});
    - {e sparse statevector} — hash-map basis-amplitude storage
      ({!Sparse}): memory and per-op work scale with the nonzero
      count, which is what lets basis-sparse dynamic circuits (the
      paper's dyn2 scheme) run past the dense 24-qubit cap;
    - {e stabilizer} — CHP tableau when the circuit is Clifford
      ({!Stabilizer.supports}); scales to hundreds of qubits;
    - {e exact branch} — when the measurement/reset count is small the
      exact branching distribution ({!Exact.program_distribution}) is
      computed once and shots are drawn from it with the O(1) alias
      sampler.  The branch states live on the sparse engine when every
      {!segment_plan} entry is sparse and on the dense engine
      otherwise, and measurements that end the circuit are read in one
      pass per branch instead of forking.

    [Auto] additionally plans {e per segment} (see {!segment_plan}):
    when the analyzer proves only part of the circuit basis-sparse, a
    hybrid run executes each segment on its best engine and converts
    the state representation at the handoffs.

    Determinism: for a fixed [seed] the histogram is byte-identical
    regardless of [domains] and of the prefix cache, because every
    shot owns a split RNG state (see {!Parallel}); and dense and
    sparse replays consume randomness identically, so engine choice
    does not perturb the shot stream. *)

type policy =
  | Auto
      (** inspect the circuit: stabilizer > exact branch > per-segment
          dense/sparse plan *)
  | Statevector_dense
  | Sparse_statevector
  | Stabilizer
  | Exact_branch

val policy_to_string : policy -> string

(** Parses ["auto" | "dense" | "sparse" | "stabilizer" | "exact"]
    (plus the ["statevector"], ["sparse-statevector"], ["chp"],
    ["exact-branch"] aliases), case-insensitively. *)
val policy_of_string : string -> policy option

val pp_policy : Format.formatter -> policy -> unit

(** Share of the circuit's non-branching (unitary/barrier/conditioned)
    instructions that precede the first measurement/reset — the
    deterministic prefix {!run} simulates once and shares across
    shots; [1.0] exactly when every measurement is terminal.  Also
    published as the [backend.prefix.fraction] telemetry gauge. *)
val prefix_fraction : Circ.t -> float

(** The circuit's static resource summary ({!Lint.Resource.analyze}),
    computed afresh on every call.  {!select} and {!run} analyze each
    circuit they plan at most once per call. *)
val resource_summary : Circ.t -> Lint.Resource.summary

(** {1 Per-segment engine planning}

    The analyzer's segments (see {!Lint.Resource}: a new segment
    starts at every measure/reset following a non-measure/reset, the
    same boundary {!Program.split_prefix} cuts at) each carry a
    certified [log2] bound on reachable nonzero amplitudes.  A segment
    is planned sparse when that bound leaves a comfortable margin
    under the dense dimension — or unconditionally past the dense
    qubit cap, where sparse is the only statevector that fits. *)

type segment_engine = {
  seg_start : int;  (** first instruction index of the segment *)
  seg_stop : int;  (** one past the last instruction index *)
  seg_engine : [ `Dense | `Sparse ];
}

(** The per-segment engine assignment [Auto] decides on: all sparse
    selects [`Sparse], mixed selects [`Hybrid], whose run executes one
    step per entry.  Reported by [dqc_cli analyze] and the sparsity
    experiment. *)
val segment_plan : Circ.t -> segment_engine list

(** ["dense,sparse,..."] — the plan's engines, comma-joined. *)
val segment_plan_string : segment_engine list -> string

(** The backend [run] would dispatch to.  [Auto] consults the
    per-segment resource summary: stabilizer when every segment is
    Clifford — by the whole-circuit scan or by the analyzer's
    observationally-equivalent witness circuit (so provably-dead
    non-Clifford gates don't force the dense engine); exact branching
    when the leaf bound [2^nondet_branches] is small relative to
    [shots] and either the circuit is narrow or the static amplitude
    bound is; otherwise the per-segment {!segment_plan} — all-dense
    plans run dense, all-sparse plans run {!Sparse}, mixed plans run
    hybrid, converting the state representation at segment handoffs.
    Selection bumps the [backend.select.<engine>] counter (see
    {!engine_name}).
    @raise Stabilizer.Unsupported when the [Stabilizer] policy is
    forced on a non-Clifford circuit.
    @raise Invalid_argument when [Statevector_dense]/[Exact_branch] is
    forced beyond {!Statevector.max_qubits}, or [Sparse_statevector]
    beyond {!Sparse.max_qubits}. *)
val select :
  ?policy:policy ->
  shots:int ->
  Circ.t ->
  [ `Dense | `Stabilizer | `Exact | `Sparse | `Hybrid ]

(** The engine's tag — ["dense"], ["sparse"], ["hybrid"],
    ["stabilizer"] or ["exact"] — as used in the
    [backend.select.<engine>] and [backend.run.<engine>] counters. *)
val engine_name :
  [ `Dense | `Stabilizer | `Exact | `Sparse | `Hybrid ] -> string

(** [run ?policy ?seed ?domains ?plan ?prefix_cache ~shots c] executes
    [shots] shots of [c] (instrumented with [plan]'s terminal
    measurements when given) on the selected backend, sharded across
    [domains] workers (default [Domain.recommended_domain_count ()]).

    Dense, sparse and hybrid runs share one plan executor: a list of
    (engine, compiled program) steps — one step over the whole circuit
    for dense or sparse, one per {!segment_plan} entry for hybrid —
    that every shot threads one {!Engine.packed} state through,
    converting it ({!Engine.convert}) where the engine changes.  With
    [prefix_cache] (default [true]) the first step's deterministic
    prefix ({!Program.split_prefix}) is simulated once and each shot
    starts from a copy of it; disabling it replays every step from
    |0...0> per shot and yields the same histogram bit-for-bit.

    [seed] defaults to {!Runner.default_seed}, the constant shared
    with {!Parallel.run}.

    Telemetry (when an [Obs] collector is installed): a [backend.run]
    span (attrs: engine, shots, qubits) around the dispatch, counters
    [backend.run.<engine>] and [backend.shots].  Plan-executor runs
    also bump [backend.run.program], count their shots into
    [backend.prefix.hit] / [backend.prefix.miss], publish the
    [backend.prefix.fraction] gauge ({!prefix_fraction}), and count
    per-shot representation conversions into
    [backend.handoff.dense_to_sparse] /
    [backend.handoff.sparse_to_dense]; a multi-step (hybrid) plan
    records a [backend.hybrid.plan] flight event with the
    segment-engine string.  The histogram itself is byte-identical
    whether or not telemetry is on. *)
val run :
  ?policy:policy ->
  ?seed:int ->
  ?domains:int ->
  ?plan:Measurement_plan.t ->
  ?prefix_cache:bool ->
  shots:int ->
  Circ.t ->
  Runner.histogram

(** [run_measured] is {!run} with
    [Measurement_plan.of_pairs measures]. *)
val run_measured :
  ?policy:policy ->
  ?seed:int ->
  ?domains:int ->
  ?prefix_cache:bool ->
  shots:int ->
  measures:(int * int) list ->
  Circ.t ->
  Runner.histogram
