(** Path-sum / phase-polynomial representation of a circuit segment:

    {v |psi> = 2^(-scale/2) . sum_x omega^phase(x) |outputs(x)> v}

    over symbolic boolean path variables [x], with [phase] a
    multilinear polynomial mod 8 (ω = e^{iπ/4}) and each qubit output
    a multilinear polynomial over GF(2).

    Mid-circuit measurement needs no case split: recording
    [bit := f_q(x)] pins each path to the branch its own assignment
    selects — paths whose recorded values differ can never interfere
    afterwards.  Variables occurring in a recorded expression are
    therefore {e observed} and must survive reduction
    ({!protected_vars}). *)

(** Multilinear polynomials over GF(2): an XOR of monomials, each a
    product of distinct variables.  The representation is canonical
    (sorted, duplicate-free), so {!equal} is semantic equality. *)
module Bexpr : sig
  type t

  val zero : t
  val one : t
  val var : int -> t
  val xor : t -> t -> t

  (** Logical AND — the multilinear product. *)
  val conj : t -> t -> t

  val not_ : t -> t

  (** The monomials, each a sorted list of variable ids (the empty
      list is the constant 1). *)
  val monomials : t -> int list list

  val is_zero : t -> bool

  (** [Some b] when the polynomial is the constant [b]. *)
  val is_const : t -> bool option

  val vars : t -> int list

  (** [subst v e t] replaces variable [v] by the polynomial [e]; it is
      [t] itself when [v] does not occur in [t]. *)
  val subst : int -> t -> t -> t

  (** Rename variables through an {e injective} map. *)
  val rename : (int -> int) -> t -> t

  val eval : (int -> bool) -> t -> bool
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val union_vars : int list -> int list -> int list
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

(** Multilinear phase polynomials with coefficients mod 8 (phases are
    powers of ω = e^{iπ/4}). *)
module Phase : sig
  type t

  (** [of_terms l] sums the terms of [l], given in any order, each a
      coefficient on a monomial (a sorted list of variable ids). *)
  val of_terms : (int list * int) list -> t

  val add : t -> t -> t
  val scale : int -> t -> t
  val neg : t -> t

  (** Arithmetic lift: L(e) ∈ {0,1} agrees pointwise with [e].
      Coefficients die at 8, so only subset-products of size ≤ 3
      survive and the lift stays polynomial-size. *)
  val lift : Bexpr.t -> t

  (** [lift4 e] = 4·L(e) mod 8 — just 4·(sum of monomials), since
      every cross term carries a multiple of 8. *)
  val lift4 : Bexpr.t -> t

  (** [Some c] when the polynomial is the constant [c]. *)
  val is_const : t -> int option

  val vars : t -> int list
  val rename : (int -> int) -> t -> t

  (** The terms: (monomial, coefficient in 1..7) pairs. *)
  val terms : t -> (int list * int) list

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

type t = {
  scale : int;  (** amplitude prefactor 2^{-scale/2} *)
  phase : Phase.t;
  outputs : Bexpr.t array;  (** per-qubit basis-state function *)
  bits : Bexpr.t option array;  (** recorded measurement expressions *)
  ghosts : Bexpr.t list;  (** discarded observations (reset, clobber) *)
  next_var : int;
  zero_amplitude : bool;  (** the whole sum reduced to 0 *)
}

(** Every variable occurring anywhere, ascending. *)
val all_vars : t -> int list

(** Variables that parametrize an observation (recorded bit, ghost) —
    reduction must never eliminate these. *)
val protected_vars : t -> int list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
