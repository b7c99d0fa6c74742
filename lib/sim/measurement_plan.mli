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

(** [of_pairs pairs] measures qubit [q] into bit [b] for each
    [(q, b)] of [pairs], in order. *)
val of_pairs : (int * int) list -> t

(** [instrument plan c] appends the plan's terminal measurements to
    [c], widening the classical register to cover every target bit.
    [of_pairs []] returns [c] unchanged. *)
val instrument : t -> Circ.t -> Circ.t
