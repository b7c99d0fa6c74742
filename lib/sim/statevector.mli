open Circuit

(** Mutable statevector over [n] qubits plus a classical register —
    the execution engine behind the samplers and the exact evaluator.

    Amplitude indexing is little-endian: bit [q] of an index is the
    computational-basis state of qubit [q].

    The state itself is {!State.t} (SoA float storage); {!run} executes
    through the compiled-kernel path ({!Program}), while the
    instruction-at-a-time entry points here ({!apply_app},
    {!run_instruction}, {!run_reference}) form the generic boxed-matrix
    interpreter kept as the differential-testing reference. *)

type t = State.t

(** Dense-vector qubit cap (24): {!create} rejects anything larger. *)
val max_qubits : int

(** [create n ~num_bits] is |0...0> with an all-zero classical
    register.  [n] is capped at {!max_qubits} (dense vector).
    @raise State.Dense_cap_exceeded beyond the cap (see {!State}'s
    memory rationale). *)
val create : int -> num_bits:int -> t

val num_qubits : t -> int
val num_bits : t -> int
val copy : t -> t
val amplitudes : t -> Linalg.Cvec.t

(** Classical register value (see {!Bits} for the encoding). *)
val register : t -> int

val set_bit : t -> int -> bool -> unit
val get_bit : t -> int -> bool

(** [apply_app st app] applies the (possibly quantum-controlled)
    unitary. *)
val apply_app : t -> Instruction.app -> unit

(** [apply_gate st g q] applies the plain 1-qubit gate. *)
val apply_gate : t -> Gate.t -> int -> unit

(** [apply_kraus1 st m q] applies an arbitrary 2x2 operator to qubit
    [q] and renormalizes — the primitive behind quantum-trajectory
    unravelings of non-unital channels (amplitude damping).
    @raise Invalid_argument when the resulting state has zero norm. *)
val apply_kraus1 : t -> Linalg.Cmat.t -> int -> unit

(** Probability that measuring [q] yields 1. *)
val prob_one : t -> int -> float

(** Raised by {!project} when the requested branch has (numerically)
    zero Born probability — collapsing onto it would divide by zero. *)
exception Zero_probability_branch of { qubit : int; outcome : bool }

(** [project st q outcome] collapses qubit [q] to [outcome] and
    renormalizes; returns the probability the branch had.
    @raise Zero_probability_branch if that probability is
    (numerically) 0. *)
val project : t -> int -> bool -> float

(** [measure ~random st ~qubit ~bit] samples an outcome with [random]
    (a float in [0,1)), collapses, stores the result into the register
    and returns it. *)
val measure : random:float -> t -> qubit:int -> bit:int -> bool

(** [reset ~random st q] performs an active reset: measure (without
    recording) then flip to |0> if needed. *)
val reset : random:float -> t -> int -> unit

(** [run_instruction ~random st i] executes one instruction through the
    generic interpreter; [random] is consulted by measure/reset only. *)
val run_instruction : random:(unit -> float) -> t -> Instruction.t -> unit

(** Run a full circuit from scratch and return the final state.
    [rng] drives measurements and resets.  Compiles the circuit to a
    kernel program and executes it ({!Program.run_circuit}); for
    repeated execution compile once and reuse the program instead. *)
val run : rng:Random.State.t -> Circ.t -> t

(** [run] through the generic instruction-at-a-time interpreter — the
    reference the compiled path is differentially tested against.
    Consumes randomness in the same order as {!run}, and agrees with it
    amplitude for amplitude, bit for bit. *)
val run_reference : rng:Random.State.t -> Circ.t -> t

(** Probability of each computational basis state (for analyses). *)
val probabilities : t -> float array

(** The dense SoA storage as a pluggable execution engine — the
    {!Engine.S} instance behind {!Backend}'s dense dispatch and
    {!Exact}'s dense enumerator.  [apply]/[exec] replay compiled
    {!Program} kernels; everything else delegates to {!State}, so
    running through the instance is bit-identical to the direct
    calls. *)
module Dense_engine : Engine.S with type state = t
