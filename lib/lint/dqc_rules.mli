(** DQC-specific invariant passes, applied to the outputs of the
    dynamic transformation (Algorithm 1 and its multi-slot
    generalization). *)

(** Both passes, in order:
    - [dqc-live-data]: [Error] when more than [max_live] data-role
      qubits are live simultaneously — a data qubit turns live at the
      first gate that touches it and dies at its measurement or reset.
      [max_live] is the physical slot count, 1 (the default) for the
      paper's design point;
    - [dqc-answer-reset]: [Error] on any reset of an answer-role
      qubit. *)
val passes : ?max_live:int -> unit -> Pass.t list
