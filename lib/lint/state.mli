open Circuit

(** Abstract machine state of the forward interpreter: one
    {!Absdom.Qubit} element per qubit, one {!Absdom.Bit} element per
    classical bit.  Values are immutable from the outside: {!step}
    returns a fresh state. *)

type t = {
  qubits : Absdom.Qubit.t array;
  bits : Absdom.Bit.t array;
  rel : Reldom.t;  (** relational facts, threaded alongside *)
}

(** Every qubit [Zero], every bit [Unwritten]. *)
val init : num_qubits:int -> num_bits:int -> t

val copy : t -> t
val qubit : t -> int -> Absdom.Qubit.t
val bit : t -> int -> Absdom.Bit.t
val rel : t -> Reldom.t

(** Static evaluation of a classical condition: [Fails] covers both a
    contradictory conjunction (which can never hold, whatever the
    register reads) and a test against a [Known] bit of the opposite
    value. *)
type cond_status = Holds | Fails | Unknown

val cond_status : t -> Instruction.cond -> cond_status

(** Transfer function of one instruction.  A [Conditioned] application
    whose condition is statically [Unknown] joins the applied and
    skipped outcomes. *)
val step : t -> Instruction.t -> t
