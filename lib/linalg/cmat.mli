(** Dense complex matrices, row-major. Sized for the small unitaries a
    gate library needs (up to a few hundred rows), not for HPC. *)

type t

val make : int -> int -> t
val identity : int -> t

(** [of_lists rows] builds a matrix from row lists.
    @raise Invalid_argument on ragged input. *)
val of_lists : Complex.t list list -> t

(** Rows given as (re, im) pairs — convenient for gate definitions. *)
val of_reim_lists : (float * float) list list -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit
val copy : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [scale a m] is a fresh matrix with every entry multiplied by [a]. *)
val scale : Complex.t -> t -> t

(** Conjugate transpose. *)
val adjoint : t -> t

val transpose : t -> t

(** Kronecker product [a ⊗ b]. *)
val kron : t -> t -> t

(** [apply m v] is the matrix-vector product. *)
val apply : t -> Cvec.t -> Cvec.t

val approx_equal : ?eps:float -> t -> t -> bool

(** [approx_equal_up_to_phase a b] holds when [a] = e^{i.phi} [b]. *)
val approx_equal_up_to_phase : ?eps:float -> t -> t -> bool

(** [is_unitary m] checks [m . m† = I]. *)
val is_unitary : ?eps:float -> t -> bool

(** Frobenius norm of the commutator [ab - ba]. *)
val commutator_norm : t -> t -> float

val pp : Format.formatter -> t -> unit
