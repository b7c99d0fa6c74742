(** Dense complex vectors, stored structure-of-arrays: one unboxed
    float array for the real parts, one for the imaginary parts.  The
    layout is what lets the simulator's compiled kernels
    ([Sim.Program]) run allocation-free float loops; everything else
    goes through the boxed {!Complex.t} accessors. *)

type t

(** [make n] is the zero vector of dimension [n]. *)
val make : int -> t

(** [basis n k] is the computational basis vector |k> in dimension [n]. *)
val basis : int -> int -> t

val of_array : Complex.t array -> t
val copy : t -> t
val dim : t -> int
val get : t -> int -> Complex.t
val set : t -> int -> Complex.t -> unit

(** {1 Raw storage}

    The live component arrays (no copy): index [k] of {!re}/{!im} is
    the real/imaginary part of component [k].  Mutating them mutates
    the vector — this is the kernel-facing escape hatch, not a general
    API. *)

val re : t -> float array
val im : t -> float array

(** Sum of squared moduli of all components. *)
val norm2 : t -> float

(** [scale a v] multiplies every component in place. *)
val scale : Complex.t -> t -> unit

(** [normalize v] rescales [v] in place to unit norm.
    @raise Invalid_argument on the zero vector. *)
val normalize : t -> unit

(** Hermitian inner product <a|b> (conjugate-linear in [a]). *)
val dot : t -> t -> Complex.t

val approx_equal : ?eps:float -> t -> t -> bool

(** [approx_equal_up_to_phase a b] holds when [a] = e^{i.phi} [b] for
    some global phase phi. *)
val approx_equal_up_to_phase : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
