open Circuit

(** Symbolic equivalence certification: prove a dynamic circuit
    equivalent to its traditional original without simulating either
    side.  Both circuits become normalized path sums
    ({!Symexec}, {!Reduce}); equivalence of the classical outcome
    channel over the shared measurement bits is then decided
    structurally, with an exact exhaustive fallback on small instances
    (all arithmetic in {!Ring} — no floats take part in a verdict). *)

(** What was proved.

    - [Channel]: the full classical outcome channel over the shared
      bits is identical — the strongest claim, matching TV distance 0.
    - [Dynamics]: the DQC is exactly equivalent to the coherent
      (deferred-measurement) replay of its own instruction stream —
      the mid-circuit measure / reset / classically-controlled
      machinery introduces {e no} error beyond the schedule deviation
      the transform already recorded as violations.  This is the
      honest certificate for Algorithm 1 outputs with violations,
      whose channels genuinely differ from the traditional circuit
      (the paper's Fig 7 accuracy loss). *)
type scope = Channel | Dynamics

(** A concrete measurement branch on which the two sides disagree. *)
type counterexample = {
  bits : (int * bool) list;  (** shared classical bits, with values *)
  p_left : float;  (** outcome probability on the left side *)
  p_right : float;  (** outcome probability on the right side *)
  detail : string;  (** exact Ring probabilities, printed *)
}

type proof = {
  scope : scope;
  path_vars : int;  (** path variables across both reduced sums *)
  reductions : int;  (** rewrite-rule applications *)
  schedule_cex : counterexample option;
      (** for [Dynamics]: a branch witnessing that the {e schedule}
          (not the dynamics) deviates from the traditional circuit *)
}

type verdict = Proved of proof | Refuted of counterexample | Unknown of string

(** [certify ~traditional ~data_bit ~answer_phys ~iteration_order
    ~violations dqc] certifies the transform output [dqc] against
    [traditional].  The bookkeeping arguments are the fields of the
    transform result; [violations] selects between the [Channel] claim
    (0: any difference is {!Refuted}) and the [Dynamics] claim
    (> 0: the channel difference is expected, so the certifier proves
    the dynamics faithful to the schedule instead).
    Exhaustive refutation runs only when both reduced sums have at
    most 14 path variables.
    Telemetry: [verify.certify] span, [verify.{proved,refuted,unknown,
    path_vars}] counters.  Never dispatches a simulation backend. *)
val certify :
  traditional:Circ.t ->
  data_bit:(int * int) list ->
  answer_phys:(int * int) list ->
  iteration_order:int list ->
  violations:int ->
  Circ.t ->
  verdict

(** [check_channel a b] certifies that two arbitrary measured circuits
    induce the same classical outcome channel over the bits measured
    on {e both} sides — the general form of the transform-result
    certification above, usable for any circuit-to-circuit rewrite
    (e.g. the qubit-reuse pass, whose output differs from its input in
    qubit count and instruction order but must agree on every measured
    bit).  Both sides run from |0…0⟩; qubits left unmeasured are
    traced out as environment.  [Proved] always carries [Channel]
    scope.  [max_refute_vars] (default 14) bounds the exhaustive
    fallback on each side; with 0 it is disabled and only the
    structural comparator can prove equality.
    Telemetry as {!certify}. *)
val check_channel : ?max_refute_vars:int -> Circ.t -> Circ.t -> verdict

val scope_to_string : scope -> string
val verdict_to_string : verdict -> string
val is_proved : verdict -> bool
