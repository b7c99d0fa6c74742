open Circuit

(** Exact evaluation of circuits with mid-circuit measurement and
    active reset, by enumerating measurement branches with their Born
    probabilities.  This is the distribution a shot-based simulator
    (the paper uses AER with 1024 shots) converges to, computed without
    sampling noise — the basis of the functional-equivalence checks.

    One depth-first enumerator, written against {!Engine.Core}, serves
    every entry point: it replays the compiled program ({!Program}) on
    one branch state, copying it only where a measure or reset forks
    with both outcomes above the prune threshold.  Only {!leaves}
    keeps the states it reaches; the distributions fold
    [(register, probability)] pairs in DFS order and hold one state per
    open fork.  When the program ends in a run of measurements, the
    distributions read those outcomes in one pass over each branch's
    probabilities ({!Engine.Core.outcome_probabilities}) instead of
    forking [2^k] times.

    Telemetry: an [exact.enumerate] span (attrs [qubits], [engine])
    around each enumeration, and a [sim.exact.leaves] count of the
    fork-tree leaves reached — a trailing-measurement pass counts
    once. *)

(** A leaf of the branching execution. *)
type leaf = {
  probability : float;
  register : int;  (** classical register at the end *)
  state : Statevector.t;  (** final (normalized) quantum state *)
}

(** All leaves with probability above [prune] (default 1e-12), forking
    on every measurement, trailing ones included, on the dense engine.
    @raise Invalid_argument when [prune] is negative or NaN. *)
val leaves : ?prune:float -> Circ.t -> leaf list

(** [program_distribution ~engine p] is the exact register
    distribution of the compiled program [p], enumerated on [engine]
    (the dense {!Statevector.Dense_engine}, the sparse
    {!Sparse.Sparse_engine} or, on a Clifford program, the tableau
    {!Stabilizer.Tableau_engine}; {!Backend.run} picks the one its
    cost model prices cheapest).  Every engine gives the same law
    within rounding.  Outcomes at or below [prune] (default 1e-12) are
    dropped, as in {!leaves}.
    @raise Invalid_argument when [prune] is negative or NaN.
    @raise Stabilizer.Unsupported on the tableau, for a kernel it does
    not map. *)
val program_distribution :
  ?prune:float -> engine:(module Engine.Core) -> Program.t -> Dist.t

(** Exact distribution over the classical register: {!program_distribution}
    of the compiled circuit on the dense engine. *)
val register_distribution : ?prune:float -> Circ.t -> Dist.t

(** [plan_distribution ~plan c] instruments [c] with the plan's
    terminal measurements ({!Measurement_plan.instrument}) and returns
    the exact register distribution. *)
val plan_distribution :
  ?prune:float -> plan:Measurement_plan.t -> Circ.t -> Dist.t

(** [measured_distribution ~measures c] is
    [plan_distribution ~plan:(Measurement_plan.of_pairs measures) c]. *)
val measured_distribution :
  ?prune:float -> measures:(int * int) list -> Circ.t -> Dist.t

(** [measure_all_distribution c] measures every qubit at the end,
    qubit [q] into bit [q]; requires [num_bits >= num_qubits] or widens
    the register. *)
val measure_all_distribution : ?prune:float -> Circ.t -> Dist.t
