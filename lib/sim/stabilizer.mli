(** CHP stabilizer-tableau simulation (Aaronson–Gottesman) as an
    execution engine over compiled programs ({!Program}).

    BV circuits — and their dynamic realizations, whose only
    non-unitary primitives are measurement, reset and classically
    controlled X — are pure Clifford circuits, so they simulate in
    O(n) bit operations per row per gate and O(n^2) per collapse
    instead of O(2^n): this engine carries the paper's scalability
    story to hundreds of qubits, far beyond the statevector limit.

    The tableau implements {!Engine.Core}, so {!Backend}'s plan
    executor (with its prefix cache) and {!Exact}'s enumerator run on
    it unchanged, and {!Backend} prices it beside the other engines.
    It keeps the engines' randomness contract: one draw per collapse,
    the outcome [random < prob_one] with [prob_one] in {0, 1/2, 1}, so
    a Clifford program replays the dense engine's shot stream for the
    same seed.

    Kernels it maps, entries compared exactly as {!Program} lowered
    them: [Kx] with no control (X) or one (CX); [Kphase] with entry
    [-1] (Z, or CZ with one control), [i] (S) or [-i] (S†); [Kh] with
    no control (H); [Ku2] with Y's entries; and [Kcond] over any of
    these.  Every other kernel raises {!Unsupported}.

    Telemetry: [sim.stabilizer.ops] counts the ops of each replay in
    one bump, [sim.stabilizer.measure] / [sim.stabilizer.reset] each
    collapse. *)

type t

exception Unsupported of string

(** 4096 qubits: the tableau holds [2(2n+1)] rows of [n] bools. *)
val max_qubits : int

(** True when every kernel of the program maps onto the tableau (see
    above) — the feasibility check {!Backend} runs on the analyzer's
    witness. *)
val supports : Program.t -> bool

(** [run ~rng p] executes one shot of [p] from |0..0>.
    @raise Unsupported on a kernel the tableau does not map. *)
val run : rng:Random.State.t -> Program.t -> t

val register : t -> int

(** The {!Engine.Core} instance ["stabilizer"].  Its [apply] raises
    {!Unsupported} on a kernel outside the mapping above (on a
    conditioned one whether or not it fires), [project] raises
    {!State.Zero_probability_branch} on an outcome of probability 0,
    and [outcome_probabilities] builds the joint law by projecting
    copies qubit by qubit, about one copy and two collapses per
    outcome. *)
module Tableau_engine : Engine.Core with type state = t
