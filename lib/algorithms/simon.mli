open Circuit

(** Simon's algorithm, traditional and dynamic.

    A hidden-shift oracle f with f(x) = f(x XOR s) is queried in
    superposition; each run yields a random y with y.s = 0, and n-1
    independent ones determine s by GF(2) elimination ({!Gf2}).

    The standard oracle (y = x XOR (x_j . s) for some j with s_j = 1)
    uses only data->answer CX gates, so Algorithm 1 dynamizes it
    {e exactly}: n data + n answer qubits become 1 + n — and this is a
    case with {e multiple answer qubits}, unlike BV/DJ. *)

(** [oracle s] over data qubits 0..n-1 and answer qubits n..2n-1.
    @raise Invalid_argument when [s] is not a non-zero binary string. *)
val oracle : string -> Instruction.t list

(** [circuit s] — the full Simon circuit: H on data, oracle, H on data
    (data measured by the caller). *)
val circuit : string -> Circ.t

(** [circuit s] with each data qubit measured into its own classical
    bit — the form the qubit-reuse pipeline ({!Dqc.Reuse}) and the
    channel certifier consume.  The answer register stays unmeasured,
    which is what lets reuse chain it onto a single wire. *)
val measured_circuit : string -> Circ.t

(** [sample_constraints ?seed ~runs s ~dynamic] executes the circuit
    (2-qubit-data dynamic realization when [dynamic]) and returns the
    observed data outcomes, each of which satisfies y.s = 0. *)
val sample_constraints :
  ?seed:int -> runs:int -> dynamic:bool -> string -> int list

(** [recover_secret ?seed ~dynamic s] runs Simon end-to-end: sample
    until n-1 independent constraints, solve the nullspace, and return
    the recovered secret (which the caller can compare to [s]).
    Returns [None] when the nullspace is not 1-dimensional within 200
    runs. *)
val recover_secret : ?seed:int -> dynamic:bool -> string -> int option
