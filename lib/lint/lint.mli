(** Static analysis over the circuit IR: a forward abstract
    interpreter ({!Trace}, {!State}, {!Absdom}) plus a registry of lint
    passes producing structured {!Diagnostic}s.  See docs/LINTING.md
    for the lattice, the pass catalogue and the [dqc.lint/1] JSON
    schema.

    Typical use:
    {[
      let report = Lint.run ~passes:(Lint.dqc_passes ()) circuit in
      if not (Lint.clean report) then
        print_string (Lint.report_to_string report)
    ]}

    Telemetry: one [lint.run] span wrapping a [lint.interpret] span,
    an [lint.instructions] counter, and one [lint.pass.<name>] counter
    per pass that produced diagnostics. *)

module Absdom = Absdom
module Reldom = Reldom
module State = State
module Trace = Trace
module Deadness = Deadness
module Resource = Resource
module Diagnostic = Diagnostic
module Pass = Pass
module Passes = Passes
module Dqc_rules = Dqc_rules
module Sarif = Sarif

type report = {
  diagnostics : Diagnostic.t list;  (** sorted by {!Diagnostic.compare} *)
  errors : int;
  warnings : int;
  hints : int;
  instructions : int;  (** instructions interpreted *)
  passes_run : int;
}

(** Raised by the pipeline's lint gate (the [lint] pass of
    [Dqc.Pipeline]) when a circuit carries error-severity diagnostics.
    A printer is registered, so uncaught exceptions list the errors. *)
exception Rejected of report

(** {!Passes.general} — the catalogue meaningful for any circuit. *)
val default_passes : Pass.t list

(** General catalogue plus the DQC-discipline passes
    ({!Dqc_rules.passes}); [max_live] defaults to 1. *)
val dqc_passes : ?max_live:int -> unit -> Pass.t list

(** Certifier-support passes ({!Passes.cond_after_clobber},
    {!Passes.nonzero_global_phase_reset}) — advisory warnings about
    patterns that weaken symbolic certification.  Opt-in: not part of
    {!default_passes} or {!dqc_passes}. *)
val certifier_passes : Pass.t list

(** Interpret the circuit once and run every pass over the trace
    ([passes] defaults to {!default_passes}). *)
val run : ?passes:Pass.t list -> Circuit.Circ.t -> report

(** A report with no error-severity diagnostics.  Warnings and hints
    do not make a circuit unclean. *)
val clean : report -> bool

(** One-line count summary, e.g. ["2 errors, 0 warnings, 1 hint over
    34 instructions (10 passes)"]. *)
val summary : report -> string

val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string

(** The [dqc.lint/1] document; [name] fills the [circuit] field. *)
val to_json : ?name:string -> report -> Obs.Json.t

(** The report as a SARIF 2.1.0 document ({!Sarif.document}); [name]
    fills the artifact URI.  The rule table carries the descriptions
    of the full pass catalogue. *)
val to_sarif : ?name:string -> report -> Obs.Json.t
