(** Ordered execution of a pass schedule with per-pass telemetry.

    Each pass runs inside an [Obs] span named [pipeline.pass.<name>]
    (attributes: kind plus the before-side metrics snapshot) and, on
    success, bumps the [pipeline.pass.<name>.runs] counter.  The
    manager snapshots qubit count, gate count and dynamic depth before
    and after every pass so schedules can be profiled stage by stage.

    Execution short-circuits on the first failing pass: the pass's
    exception is re-raised unchanged (so [Lint.Rejected],
    [Transform.Not_transformable] etc. keep their meaning for
    callers), after a [pipeline.pass.failed] counter increment
    records which stage died. *)

type event = {
  pass : string;
  kind : Pass.kind;
  elapsed_ns : float;  (** CPU time spent inside the pass *)
  qubits_before : int;
  qubits_after : int;
  gates_before : int;
  gates_after : int;
  depth_before : int;
  depth_after : int;
}

type outcome = {
  ctx : Pass.ctx;
  events : event list;  (** execution order *)
}

(** Run the schedule over the context.  Re-raises the first pass
    failure after recording it. *)
val run : Pass.t list -> Pass.ctx -> outcome

