(** Quantum circuits: an ordered instruction stream over [num_qubits]
    qubits (each tagged with a role) and [num_bits] classical bits.

    Roles follow the paper's nomenclature: {e data} qubits carry the
    algorithm input, {e answer} qubits carry the oracle output and stay
    live across DQC iterations, {e ancilla} qubits are scratch space
    introduced by decompositions (Eqn 3). *)

type role = Data | Ancilla | Answer

type t

(** [create ~roles ~num_bits instrs] builds a circuit; every instruction
    is checked with {!Instruction.well_formed}.  Classical registers
    are machine integers, so [num_bits] is capped at 62.
    @raise Invalid_argument on an ill-formed instruction or an
    oversized register. *)
val create : roles:role array -> num_bits:int -> Instruction.t list -> t

(** 4096: the widest qubit register any engine runs, the tableau's,
    which holds [2(2n+1)] rows of [n] bools.  The QASM parser rejects
    a wider declaration. *)
val max_qubits : int

val num_qubits : t -> int
val num_bits : t -> int
val role : t -> int -> role
val roles : t -> role array
val instructions : t -> Instruction.t list

(** Qubit indices holding the given role, ascending. *)
val qubits_with_role : t -> role -> int list

(** [append c instrs] is [c] with [instrs] appended. *)
val append : t -> Instruction.t list -> t

(** [concat a b] concatenates instruction streams; qubit/bit shapes and
    roles must agree.
    @raise Invalid_argument otherwise. *)
val concat : t -> t -> t

(** [map_instructions f c] rewrites each instruction into a list
    (substitution pass), keeping shape and roles. *)
val map_instructions : (Instruction.t -> Instruction.t list) -> t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Builder}

    Imperative construction buffer for generators. *)
module Builder : sig
  type circuit := t
  type t

  (** [make ~roles ~num_bits ()] starts an empty buffer. *)
  val make : roles:role array -> num_bits:int -> unit -> t

  val add : t -> Instruction.t -> unit
  val add_list : t -> Instruction.t list -> unit
  val gate : t -> Gate.t -> int -> unit
  val h : t -> int -> unit
  val x : t -> int -> unit
  val z : t -> int -> unit
  val cx : t -> int -> int -> unit

  (** [cgate b g c t] adds controlled-[g] with control [c], target [t]. *)
  val cgate : t -> Gate.t -> int -> int -> unit

  val cv : t -> int -> int -> unit
  val cvdg : t -> int -> int -> unit

  (** [ccx b c1 c2 t] adds a Toffoli. *)
  val ccx : t -> int -> int -> int -> unit

  val measure : t -> qubit:int -> bit:int -> unit
  val reset : t -> int -> unit

  (** [conditioned b ~bit g t] adds [if (bit == 1) g t]. *)
  val conditioned : t -> bit:int -> Gate.t -> int -> unit

  val barrier : t -> int list -> unit
  val build : t -> circuit
end
