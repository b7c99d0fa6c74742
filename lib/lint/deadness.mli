(** The shared deadness / constant-fact query API.

    Three consumers need the same static facts about an interpreted
    circuit: the {!Resource} analyzer (to build its simplified witness
    circuit), the diagnose-only lint passes [dead-gate] /
    [redundant-reset] in {!Passes}, and the certified optimizer
    ([Dqc.Optimize]) that rewrites what those passes merely report.
    This module is the single source of truth for those facts, so a
    diagnostic and the rewrite that fixes it can never disagree.

    Per-state queries combine the per-wire lattice ({!Absdom}) with
    the relational GF(2) rows ({!Reldom}): a fact is returned only
    when it holds on {e every} execution branch. *)

open Circuit

(** Whole-trace tables, computed once per trace. *)
type t

val of_trace : Trace.t -> t

(** {1 Per-state facts} *)

(** The basis value a qubit provably reads at this point, combining
    the per-wire lattice with the relational rows; [None] when the
    qubit may be in superposition or its value is branch-dependent. *)
val qubit_value : State.t -> int -> bool option

(** [qubit_value] pinned to [false]: the qubit provably reads |0⟩. *)
val provably_zero : State.t -> int -> bool

(** The value a classical bit holds at runtime here, when provable.
    An [Unwritten] bit reads its initial value [false]; a [Written]
    bit may still be pinned by the relational rows. *)
val bit_value : State.t -> int -> bool option

(** Exact, observation-preserving gate simplification: a provably-|0⟩
    control kills the application ([None]), a provably-|1⟩ control is
    dropped from the control list, and a |0⟩-fixing gate on a
    provably-|0⟩ target is dead. *)
val simplify_app : State.t -> Instruction.app -> Instruction.app option

(** One instruction of the analyzer's witness circuit: [None] when
    the instruction provably has no observable effect, otherwise the
    simplified equivalent.  Conditions are resolved through
    {!State.cond_status}; measures, resets and barriers are kept. *)
val witness_instr : State.t -> Instruction.t -> Instruction.t option

(** {1 Whole-trace facts} *)

(** Last index at which each qubit is referenced by an effectful
    instruction (barriers read nothing and keep nothing alive);
    [-1] when never referenced. *)
val last_reference : t -> int array

(** [dead_unitary t i]: instruction [i] is an (unconditioned) unitary
    acting after the final measurement of every operand, with no later
    reference to any of them — it cannot affect any outcome.  This is
    exactly the [dead-gate] lint criterion; conditioned gates are
    never dead here (the DQC uncomputation idiom returns a physical
    qubit to |0⟩ for reuse beyond the circuit's scope). *)
val dead_unitary : t -> int -> bool

(** [redundant_reset t i]: instruction [i] resets a qubit that
    provably already reads |0⟩ — exactly the [redundant-reset] lint
    criterion. *)
val redundant_reset : t -> int -> bool

(** Backward observability-liveness: [true] at index [i] when the
    instruction provably cannot influence any measured bit — the
    query behind the optimizer's dead-code elimination, strictly
    stronger than {!dead_unitary}.

    A wire is {e observable} at circuit end iff it is never measured
    anywhere (its final quantum state is then treated as an output;
    on measured wires the classical record is the output).  Scanning
    backward: a measurement keeps its wire observable; a reset makes
    the wire's {e prior} state unobservable (any purely-local
    operation before a reset leaves the reduced state of the rest of
    the system unchanged), and is itself dead when the wire is not
    observable after it; a gate whose operands are all unobservable
    is dead, and otherwise makes every operand observable.

    Conditioned gates are {e not} exempt here: under the classical
    outcome-channel contract the optimizer certifies against
    ({!Verify.Certify.check_channel}), a trailing classically
    controlled uncomputation on a dead wire is removable — the lint
    [dead-gate] pass deliberately does not diagnose the idiom, but
    the certified rewrite may cancel it. *)
val dead_set : t -> bool array
