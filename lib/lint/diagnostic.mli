(** Structured linter diagnostics.

    [instr_index] is the 0-based position in the circuit's instruction
    stream; end-of-circuit diagnostics (e.g. an ancilla not returned
    to |0⟩) use the one-past-last index.  The JSON encoding is one
    element of the [diagnostics] array of the [dqc.lint/1] document
    (see docs/LINTING.md). *)

type severity = Error | Warning | Hint

type t = {
  pass : string;  (** name of the pass that produced the diagnostic *)
  severity : severity;
  instr_index : int;
  qubits : int list;  (** qubits the diagnostic is about *)
  bits : int list;  (** classical bits the diagnostic is about *)
  message : string;
  suggestion : string option;  (** how to fix it, when known *)
}

(** [Error] < [Warning] < [Hint]. *)
val severity_rank : severity -> int

val make :
  ?qubits:int list ->
  ?bits:int list ->
  ?suggestion:string ->
  pass:string ->
  severity:severity ->
  instr_index:int ->
  string ->
  t

(** Orders by instruction index, then severity, then pass/message. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_json : t -> Obs.Json.t
