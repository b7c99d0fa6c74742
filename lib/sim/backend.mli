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
    - {e stabilizer} — the CHP tableau ({!Stabilizer}) when the
      analyzer proves the circuit Clifford; it runs the analyzer's
      witness, holds no 2^n state and scales to thousands of qubits;
    - {e exact branch} — the exact branching distribution
      ({!Exact.program_distribution}) is computed once and shots are
      drawn from it with the O(1) alias sampler.  The branch states
      live on the dense engine, the sparse one or the tableau,
      whichever is predicted cheapest, and measurements that end the
      circuit are read in one pass per branch instead of forking.

    [Auto] runs the engine with the least predicted CPU cost
    ({!predict}): exact, sparse, dense, the tableau, or a {e hybrid}
    run that executes each analyzer segment on its cheaper
    statevector engine and converts the state representation at the
    handoffs.

    Determinism: for a fixed [seed] the histogram is byte-identical
    regardless of [domains] and of the prefix cache, because every
    shot owns a split RNG state (see {!Parallel}); and the dense,
    sparse and tableau replays consume randomness identically, so
    engine choice does not perturb the shot stream. *)

type policy =
  | Auto  (** the engine of least predicted cost *)
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

(** {1 Engine selection}

    The analyzer's segments (see {!Lint.Resource}: a new segment
    starts at every measure/reset following a non-measure/reset, the
    same boundary {!Program.split_prefix} cuts at) and its
    per-instruction [log2] bounds on reachable nonzero amplitudes are
    what the cost model reads.  An op costs the work units it touches
    times a per-class constant of its engine ({!Calibration}, measured
    by [bench calibrate]): [2^(n - controls)] amplitudes on the dense
    engine, the bound on its live entries on the sparse engine, and on
    the tableau its [2n] generator rows per gate and [n^2] bits per
    collapse (a tableau copy also counts [n^2]).  Per run:
    - dense, sparse and the tableau: the unitary prefix once, then per
      shot a copy of the state it leaves and the rest of the ops;
    - hybrid: each segment on its cheaper statevector engine, plus a
      conversion per shot at every engine change;
    - exact: the enumeration tree on the cheapest of its three engines
      — instruction [i] on [2^forks.(i)] branches
      ({!Lint.Resource.summary}'s [forks]: the collapses it cannot pin
      before [i], the trailing measurements excepted), a state copy
      per branch at each fork and a fixed cost per leaf — then one
      alias draw per shot.  The tableau reads a leaf's trailing
      measurements by forking a copy per outcome, so it also pays,
      per leaf, a copy, two collapses and a leaf cost for each of at
      most [2^min(u, b)] outcomes ([u] the run's unpinned collapses,
      [b] the bound where the run starts).

    Memory caps and the tableau's gate set rule engines out before any
    cost is compared: dense and hybrid need at most
    {!Statevector.max_qubits} qubits, sparse at most
    {!Sparse.max_qubits}, the dense enumerator, which holds one 2^n
    state per open fork, at most 16 qubits or an amplitude bound of at
    most 16, and the tableau, sampled or enumerated, at most
    {!Stabilizer.max_qubits} qubits, a Clifford verdict from the
    analyzer and a witness whose every kernel it maps
    ({!Stabilizer.supports}). *)

type segment_engine = {
  seg_start : int;  (** first instruction index of the segment *)
  seg_stop : int;  (** one past the last instruction index *)
  seg_engine : [ `Dense | `Sparse ];
}

(** ["dense,sparse,..."] — the plan's engines, comma-joined. *)
val segment_plan_string : segment_engine list -> string

(** The cost model's view of a run of [shots] shots. *)
type prediction = {
  forks : int;  (** exact enumerates at most [2^forks] leaves *)
  costs :
    ([ `Dense | `Stabilizer | `Exact | `Sparse | `Hybrid ]
    * (float, string) result)
    list;
      (** exact, sparse, dense, hybrid and stabilizer, in that
          (tie-break) order: the predicted CPU milliseconds, or the
          cap or gate set that rules the engine out (hybrid is also
          out when every segment is cheaper on one engine) *)
  exact_engine : [ `Dense | `Sparse | `Stabilizer ] option;
      (** the engine exact would enumerate on *)
  plan : segment_engine list;
      (** each analyzer segment on the engine predicted to run it
          cheaper over the run — the plan a hybrid run executes, one
          step per entry; reported by [dqc_cli analyze] and the
          sparsity experiment *)
}

(** The predicted cost of [shots] shots of [c] on every engine.  Runs
    nothing but the analyzer and, for a Clifford verdict, the
    witness's compilation. *)
val predict : shots:int -> Circ.t -> prediction

(** The backend [run] would dispatch to.  [Auto] picks the cheapest
    feasible entry of {!predict}; [Exact_branch] exact on its cheapest
    enumerator.  Selection bumps the [backend.select.<engine>] counter
    (see {!engine_name}); with a flight recorder armed, an [Auto]
    selection records one [backend.select] event: [qubits], [shots],
    [rule] (always ["cost"]), [forks], [predicted_ms] and [ruled_out]
    (engine name to predicted ms or to the cap or gate set),
    [exact_engine], [plan] and the [winner].
    @raise Stabilizer.Unsupported when the [Stabilizer] policy is
    forced on a circuit the sampled tableau cannot run: no Clifford
    verdict, or a witness kernel outside its gate set.
    @raise Invalid_argument when [Statevector_dense] is forced beyond
    {!Statevector.max_qubits}, [Sparse_statevector] beyond
    {!Sparse.max_qubits}, [Stabilizer] beyond
    {!Stabilizer.max_qubits}, [Exact_branch] where no enumerator fits
    (past {!Sparse.max_qubits} on a non-Clifford circuit), or [Auto]
    where no engine does. *)
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
    measurements when given; selection reads the instrumented circuit)
    on the selected backend, sharded across [domains] workers (default
    [Domain.recommended_domain_count ()]).

    Dense, sparse, tableau and hybrid runs share one plan executor: a
    list of (engine, compiled program) steps — one step over the whole
    program for a single engine (the tableau's is the analyzer's
    witness), one per {!prediction} [plan] entry for hybrid — that
    every shot threads one state through, converting it
    ({!Engine.convert}) where a hybrid plan changes engine.  With
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
