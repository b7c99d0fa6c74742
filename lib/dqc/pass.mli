open Circuit

(** First-class compilation passes — the unit the staged pass manager
    ({!Pass_manager}) schedules and the {!Pipeline} builds its
    compile flows from.

    A pass is a named, kinded function over a typed context that
    carries the circuit being compiled together with everything the
    stages accumulate: the transform bookkeeping, equivalence
    evidence, reports and free-form notes.  A pass that needs the
    abstract interpreter's facts interprets the current circuit
    itself.  Passes never talk to each other directly — the context is
    the only channel, which is what makes schedules reorderable and
    custom passes composable with the built-in ones: a schedule is a
    plain [t list] for {!Pass_manager.run}.

    See docs/PASSES.md for the catalogue, the default schedules and a
    worked custom-pass example. *)

(** What a pass is allowed to do, surfaced in listings and telemetry:

    - [Analysis] computes facts or evidence but leaves the circuit
      unchanged;
    - [Transform] may rewrite the circuit;
    - [Gate] may abort compilation by raising (the lint gate, the
      reuse certification gate). *)
type kind = Analysis | Transform | Gate

(** Static configuration the schedule was built from — everything a
    pass body may branch on besides the context's accumulated state. *)
type config = {
  scheme : Toffoli_scheme.t;
  mode : [ `Algorithm1 | `Sound ];
  slots : int;
}

(** The transform stage's full result, kept for downstream evidence
    passes (the certifier and equivalence checkers need the complete
    bookkeeping, not just the circuit).  [Single] holds the result of
    a one-slot compile, the only kind the certifier's path-sum replay
    accepts; [Multi] holds one compiled with [slots >= 2]. *)
type transformed = Single of Transform.result | Multi of Transform.result

type ctx = {
  config : config;
  traditional : Circ.t;  (** the untouched compile input *)
  reference : Circ.t;
      (** what equivalence evidence compares against: the prepared
          (scheme-substituted) circuit once [prepare] has run *)
  circuit : Circ.t;  (** the current rewrite state *)
  transformed : transformed option;
  data_bit : (int * int) list;
  answer_phys : (int * int) list;
  iterations : int;
  violations : int;
  certified : bool;
  tv : float option;
  tv_sampled : bool;
  lint : Lint.report option;
  reuse : Reuse.report option;
  notes : (string * string) list;
      (** accumulated diagnostics, newest first *)
}

(** A fresh context over the compile input. *)
val init : config:config -> Circ.t -> ctx

(** [note key value ctx] prepends a diagnostic note. *)
val note : string -> string -> ctx -> ctx

type t = { name : string; kind : kind; doc : string; run : ctx -> ctx }

(** @raise Invalid_argument on an empty name. *)
val make : name:string -> kind:kind -> doc:string -> (ctx -> ctx) -> t

val kind_to_string : kind -> string
