(** OpenQASM 3 export.

    Dynamic-circuit primitives map directly: [Measure] to
    [c[i] = measure q[j]], [Reset] to [reset], [Conditioned] to an
    [if (c[i] == v)] statement — the subset IBM's dynamic-circuit
    backends accept. [V]/[Vdg] are emitted as [sx]/[sxdg]. *)

(** [to_string ?name c] renders a complete OpenQASM 3 program. *)
val to_string : ?name:string -> Circ.t -> string

exception Parse_error of string

(** [parse ?roles source] reads the OpenQASM 3 subset {!to_string}
    emits: one qubit register, one bit register, the standard-gate
    applications with any number of [c] prefixes, [rx/ry/rz/p] with a
    literal angle, measurement, reset, barrier, and [if] statements
    guarding a single application with a conjunction of bit tests.

    QASM carries no qubit-role information; [roles] overrides the
    default of every qubit being {!Circ.Data}.

    @raise Parse_error on malformed input, which includes a qubit or
    bit index outside its register, a qubit named twice in one
    instruction, a negative register width, a qubit register wider
    than {!Circ.max_qubits} (rejected before it is allocated) and a bit
    register wider than {!Circ.create} allows; these messages name the
    line.
    @raise Invalid_argument when [roles] disagrees with the declared
    qubit count. *)
val parse : ?roles:Circ.role array -> string -> Circ.t
