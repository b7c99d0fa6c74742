(** Mutable SoA simulator state: amplitudes as two unboxed float
    arrays ({!Linalg.Cvec}) plus the classical register.

    This is the storage layer shared by the compiled execution path
    ({!Program}) and the generic interpreter ({!Statevector}, the
    public face that re-exports everything here).  Amplitude indexing
    is little-endian: bit [q] of an index is the computational-basis
    state of qubit [q]. *)

type t

(** Dense-vector qubit cap (24): {!create} rejects anything larger.

    The cap is a memory budget, not an algorithmic limit.  The dense
    representation materializes all [2^n] amplitudes as two unboxed
    float arrays, so [n] qubits cost [2^n * 16] bytes per state — 256
    MiB at 24 qubits — and a sampled run past 16 qubits copies one
    state per shot and holds two per domain.  One step further (25
    qubits, 512 MiB per copy) makes multi-domain shot execution and
    the exact-branch enumerator's forked states exceed typical host
    memory, so the cap stays at 24 until the big-memory kernels of
    ROADMAP item 2 land.  Wider circuits are not rejected outright:
    {!Backend}'s [Auto] policy plans every segment of a circuit past
    the cap on the hash-map sparse engine ({!Sparse}), which costs
    memory per {e nonzero} amplitude instead of per dimension. *)
val max_qubits : int

(** Raised by {!create} when the requested width exceeds
    {!max_qubits} — a typed signal (rather than a blanket
    [Invalid_argument]) that names the width and the cap. *)
exception Dense_cap_exceeded of { qubits : int; max_qubits : int }

(** [create n ~num_bits] is |0...0> with an all-zero classical
    register.
    @raise Dense_cap_exceeded beyond {!max_qubits}.
    @raise Invalid_argument on negative [n]. *)
val create : int -> num_bits:int -> t

val num_qubits : t -> int
val num_bits : t -> int
val copy : t -> t

(** A copy of the amplitude vector. *)
val amplitudes : t -> Linalg.Cvec.t

(** The live amplitude storage (no copy) — the kernel-facing escape
    hatch; mutate only from execution engines. *)
val raw : t -> Linalg.Cvec.t

val register : t -> int
val set_register : t -> int -> unit
val set_bit : t -> int -> bool -> unit
val get_bit : t -> int -> bool

val norm2 : t -> float

(** Rescale to unit norm.
    @raise Invalid_argument on a (numerically) zero state. *)
val renormalize : t -> unit

(** Probability that measuring [q] yields 1. *)
val prob_one : t -> int -> float

(** Raised by {!project} when the requested branch has (numerically)
    zero Born probability. *)
exception Zero_probability_branch of { qubit : int; outcome : bool }

(** [project st q outcome] collapses qubit [q] and renormalizes;
    returns the probability the branch had.
    @raise Zero_probability_branch when that probability is 0. *)
val project : t -> int -> bool -> float

(** In-place Pauli-X on a qubit (exact amplitude swap). *)
val flip : t -> int -> unit

(** [measure ~random st ~qubit ~bit] samples with [random] (a float in
    [0,1)), collapses, records into the register, returns the outcome. *)
val measure : random:float -> t -> qubit:int -> bit:int -> bool

(** [reset ~random st q] measures (without recording) then flips to
    |0> if needed. *)
val reset : random:float -> t -> int -> unit

(** Probability of each computational basis state. *)
val probabilities : t -> float array
