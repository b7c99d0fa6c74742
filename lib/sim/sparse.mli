(** Hash-map basis-amplitude statevector — the sparse execution
    engine.

    Stores only nonzero amplitudes (a compact slot table keyed by
    basis index), so memory and per-op work scale with the number of
    nonzeros instead of with [2^n].  That is exactly the resource the
    paper's dyn2 dynamic circuits keep small: ancillas live in
    computational basis states, so a per-shot state has a handful of
    entries at any width — which is what lets this engine run
    basis-sparse workloads past the dense 24-qubit cap
    ({!State.max_qubits}).

    Kernels mirror the dense {!Program} kernels
    expression-for-expression (absent partners read as 0.), so dense
    and sparse agree amplitude-for-amplitude within the pruning
    tolerance and replay identical seed-deterministic shot streams
    (test/test_sparse.ml's "differential" cases enforce both, up to
    10 qubits).  After each mixing kernel (H / generic 2x2), entries
    with [|amp|^2 <= 1e-24] are pruned — far below rounding noise on
    any normalized Born sum, so pruning never flips a measurement
    outcome.

    Telemetry: [sim.sparse.measure] / [sim.sparse.reset] counter bumps
    per collapse, and [sim.sparse.ops] per replayed op (collector
    installed only). *)

type t

(** Index-width cap ([Sys.int_size - 3], 60 on 64-bit): basis indices
    are OCaml ints, with headroom so bit-shifts never overflow.  The
    binding resource is the {e nonzero count}, not the width — a
    60-qubit state with 4 nonzeros costs a few hundred bytes. *)
val max_qubits : int

(** [create n ~num_bits] is |0...0> (one entry) with an all-zero
    classical register.
    @raise Invalid_argument outside [0..max_qubits]. *)
val create : int -> num_bits:int -> t

val copy : t -> t
val num_qubits : t -> int
val num_bits : t -> int
val register : t -> int
val set_register : t -> int -> unit
val set_bit : t -> int -> bool -> unit
val get_bit : t -> int -> bool

(** Number of stored (nonzero) amplitudes. *)
val nnz : t -> int

val norm2 : t -> float

(** Amplitude of one basis state ([Complex.zero] when not stored). *)
val amplitude : t -> int -> Complex.t

(** Probability that measuring [q] yields 1. *)
val prob_one : t -> int -> float

(** [project st q outcome] collapses and renormalizes; returns the
    branch probability.
    @raise State.Zero_probability_branch when that probability is 0. *)
val project : t -> int -> bool -> float

(** In-place Pauli-X: an exact key remap, never changes [nnz]. *)
val flip : t -> int -> unit

val measure : random:float -> t -> qubit:int -> bit:int -> bool
val reset : random:float -> t -> int -> unit

(** [apply st op] applies a unitary or conditioned compiled op.
    @raise Invalid_argument on a measure/reset op. *)
val apply : t -> Program.kernel -> unit

(** Replay a compiled program: its {!Program.kernels}, in order. *)
val exec : random:(unit -> float) -> t -> Program.t -> unit

(** Execute a compiled program from a fresh |0...0> state. *)
val run : rng:Random.State.t -> Program.t -> t

(** {1 Conversions} — the hybrid handoff and the densify escape
    hatch. *)

(** Densify.
    @raise State.Dense_cap_exceeded past {!State.max_qubits}. *)
val to_state : t -> State.t

(** Sparsify a dense state (register preserved, exact zeros dropped). *)
val of_state : State.t -> t

(** Dense [2^n] probability array.
    @raise State.Dense_cap_exceeded past {!State.max_qubits}. *)
val probabilities : t -> float array

(** The {!Engine.S} instance — what {!Backend} dispatches to on
    [`Sparse] selections and sparse hybrid segments, and what its
    exact-branch runs enumerate on when every segment is sparse. *)
module Sparse_engine : Engine.S with type state = t
