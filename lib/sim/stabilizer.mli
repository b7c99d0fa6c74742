open Circuit

(** CHP stabilizer-tableau simulation (Aaronson–Gottesman).

    BV circuits — and their dynamic realizations, whose only
    non-unitary primitives are measurement, reset and classically
    controlled X — are pure Clifford circuits, so they simulate in
    O(n^2) per measurement instead of O(2^n): this engine demonstrates
    the paper's scalability story at hundreds of qubits, far beyond
    the statevector limit.

    Supported gates: H, X, Y, Z, S, S†, CX, CZ (plain or classically
    conditioned); measurement and reset.  {!supports} checks a circuit
    up front. *)

type t

(** Fresh |0..0> tableau.  [n] up to 4096. *)
val create : int -> num_bits:int -> t

val num_qubits : t -> int
val register : t -> int

(** True when every instruction is Clifford (see above). *)
val supports : Circ.t -> bool

exception Unsupported of string

(** [run ~rng c] executes one shot.
    @raise Unsupported on non-Clifford instructions. *)
val run : rng:Random.State.t -> Circ.t -> t

(** Measure qubit [q] mid-simulation (used by {!run}; exposed for
    custom drivers).  Returns the outcome. *)
val measure : rng:Random.State.t -> t -> int -> bool
