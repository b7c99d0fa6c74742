(** Ordered execution of a pass schedule with per-pass telemetry.

    Each pass runs inside an [Obs] span named [pipeline.pass.<name>]
    and, on success, bumps the [pipeline.pass.<name>.runs] counter.
    While a collector is installed the span carries the pass kind and
    the qubit and gate counts of the circuit entering the pass; while a
    flight recorder is armed, [pass.begin] and [pass.end] events carry
    the qubit count, gate count and dynamic depth of the circuit
    entering and leaving it.  With neither installed no snapshot is
    taken.

    Execution short-circuits on the first failing pass: the pass's
    exception is re-raised unchanged (so [Lint.Rejected],
    [Transform.Not_transformable] etc. keep their meaning for
    callers), after a [pipeline.pass.failed] counter increment
    records which stage died. *)

type event = {
  pass : string;
  kind : Pass.kind;
  elapsed_ns : float;  (** CPU time spent inside the pass *)
}

type outcome = {
  ctx : Pass.ctx;
  events : event list;  (** execution order *)
}

(** Run the schedule over the context.  Re-raises the first pass
    failure after recording it. *)
val run : Pass.t list -> Pass.ctx -> outcome
