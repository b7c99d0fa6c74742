(** Exact amplitude arithmetic in ℤ[i, 1/√2], represented on the
    ω-basis ℤ[ω, 1/√2] with ω = e^{iπ/4}: a value is
    (a + bω + cω² + dω³)/√2^s with integer coefficients.  Since
    ω⁴ = −1 and √2 = ω − ω³, the ring is closed under every amplitude
    of the Clifford+T set and of V/V† (whose entries are (1±i)/2) —
    no floating point anywhere in a certificate. *)

type t = private { a : int; b : int; c : int; d : int; s : int }

(** [make ?s a b c d] is (a + bω + cω² + dω³)/√2^s, normalized: the
    numerator is divided by √2 (and [s] decremented) while possible,
    so structural equality of normalized values is semantic
    equality. *)
val make : ?s:int -> int -> int -> int -> int -> t

val zero : t
val one : t
val i : t
val of_int : int -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

(** Complex conjugate (ω ↦ ω⁷ = −ω³). *)
val conj : t -> t

(** [norm_sq t] = t · conj t — a real, non-negative ring element. *)
val norm_sq : t -> t

(** [div_root2 n t] = t / √2^n ([n] may be negative). *)
val div_root2 : int -> t -> t

val is_zero : t -> bool
val equal : t -> t -> bool

(** Real part of the float view (for reports only — never used in
    proofs); convenient for [norm_sq] values. *)
val to_float : t -> float

val to_string : t -> string
val pp : Format.formatter -> t -> unit
