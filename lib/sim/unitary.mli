open Circuit

(** Full unitary matrix of a measurement-free circuit — used to verify
    gate decompositions (Fig 2, Fig 6, Eqn 1, Eqn 3) and as the
    fallback of the commutation oracle. *)

(** [of_circuit ?max_qubits c] is the 2^n x 2^n matrix, little-endian
    qubit order.  [max_qubits] overrides the width cap, 12 qubits by
    default.  An [n]-qubit unitary is a dense 2^n × 2^n complex
    matrix: at 16 bytes per entry that is 2^(2n+4) bytes — 256 MiB at
    n = 12, and 4 GiB already at n = 13 — and building it takes 2^n
    statevector runs on top.  12 keeps the worst case at "large but
    safe" on a development machine; raise the cap per call only
    knowing that.
    @raise Invalid_argument if the circuit contains measure, reset or
    conditioned instructions, or exceeds the cap. *)
val of_circuit : ?max_qubits:int -> Circ.t -> Linalg.Cmat.t

(** Matrix of a single application embedded in [n] qubits. *)
val of_app : n:int -> Instruction.app -> Linalg.Cmat.t

(** [equivalent ?max_qubits ?up_to_phase a b] compares two
    measurement-free circuits' unitaries ([up_to_phase] defaults to
    [true]; [max_qubits] as in {!of_circuit}). *)
val equivalent :
  ?max_qubits:int -> ?up_to_phase:bool -> Circ.t -> Circ.t -> bool
