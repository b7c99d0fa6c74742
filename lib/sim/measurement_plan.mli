open Circuit

(** One shared description of terminal measurements.

    The [(qubit, bit)] association list convention used to be
    duplicated across {!Exact.measured_distribution} and the shot
    samplers; a plan is the single type {!Backend.run} and {!Exact}
    accept.  A plan is resolved against a concrete circuit:
    [measure_all] expands to one terminal measurement per qubit (qubit
    [q] into bit [q]). *)

type t

(** Measure every qubit at the end, qubit [q] into bit [q]. *)
val measure_all : t

(** The plan with no terminal measurement (the circuit's own
    mid-circuit record is the outcome). *)
val none : t

(** [measure ~qubit ~bit] measures one qubit into one register bit. *)
val measure : qubit:int -> bit:int -> t

(** [of_pairs pairs] adopts the legacy [(qubit, bit)] list verbatim. *)
val of_pairs : (int * int) list -> t

(** [combine a b] performs [a]'s measurements then [b]'s;
    [measure_all] absorbs the other operand. *)
val combine : t -> t -> t

(** Resolve to the concrete [(qubit, bit)] list for a circuit of
    [num_qubits] qubits. *)
val to_pairs : num_qubits:int -> t -> (int * int) list

(** Register width of the instrumented circuit: the original
    [num_bits] widened to cover every plan target bit. *)
val width : t -> Circ.t -> int

(** [instrument plan c] appends the plan's terminal measurements to
    [c], widening the classical register as needed.  [none] returns
    [c] unchanged. *)
val instrument : t -> Circ.t -> Circ.t

val pp : Format.formatter -> t -> unit
