open Circuit

(** Exact evaluation of circuits with mid-circuit measurement and
    active reset: the register distribution a shot-based simulator
    (the paper uses AER with 1024 shots) converges to, computed without
    sampling noise — the basis of the functional-equivalence checks.

    Every entry point is {!program_distribution}: the outcome-tree walk
    ({!Walk.probabilities}), each branch carrying its Born probability,
    up to the run of measurements that ends the program, which each
    leaf reads in one pass over its probabilities
    ({!Engine.Core.outcome_probabilities}) instead of forking [2^k]
    times.

    Telemetry: an [exact.enumerate] span (attrs [qubits], [engine])
    around each walk, and a [sim.exact.leaves] count of the leaves it
    reached — a trailing-measurement pass counts once. *)

(** [program_distribution ~engine p] is the exact register
    distribution of the compiled program [p], enumerated on [engine]
    (the dense {!Statevector.Dense_engine}, the sparse
    {!Sparse.Sparse_engine} or, on a Clifford program, the tableau
    {!Stabilizer.Tableau_engine}; {!Backend.run} picks the one its
    cost model prices cheapest).  Every engine gives the same law
    within rounding.  Outcomes at or below [prune] (default 1e-12) are
    dropped.
    @raise Invalid_argument when [prune] is negative or NaN.
    @raise Stabilizer.Unsupported on the tableau, for a kernel it does
    not map. *)
val program_distribution :
  ?prune:float -> engine:(module Engine.Core) -> Program.t -> Dist.t

(** Exact distribution over the classical register: {!program_distribution}
    of the compiled circuit on the dense engine. *)
val register_distribution : ?prune:float -> Circ.t -> Dist.t

(** [measured_distribution ~measures c] appends the terminal
    measurements [(qubit, bit)] of [measures]
    ({!Measurement_plan.instrument}) and returns the exact register
    distribution. *)
val measured_distribution :
  ?prune:float -> measures:(int * int) list -> Circ.t -> Dist.t

(** [measure_all_distribution c] measures every qubit at the end,
    qubit [q] into bit [q]; requires [num_bits >= num_qubits] or widens
    the register. *)
val measure_all_distribution : ?prune:float -> Circ.t -> Dist.t
