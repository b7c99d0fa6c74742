(** Flight recorder: fixed-size lock-free ring of structured events.

    Complements the metrics collector with {e forensics}: pass
    begin/end snapshots, lint diagnostics, certifier verdicts, RNG
    seeds and backend decisions are recorded as typed events in a
    wrapping ring, and dumped as JSON (schema [dqc.flight/1]) either on
    demand ([--flight-record out.json]) or automatically when the
    pipeline raises.  Writers claim slots with one atomic
    fetch-and-add — no locks, safe from any domain; when no recorder
    is armed, {!record} costs one Atomic load and a branch. *)

type event = {
  seq : int;  (** global sequence number, gap-free across domains *)
  t_ns : int64;  (** {!Clock.now_ns} at record time *)
  tid : int;  (** integer id of the recording domain *)
  kind : string;  (** event type, e.g. ["pass.begin"], ["certify.verdict"] *)
  data : (string * Json.t) list;
}

type t

(** ["dqc.flight/1"], stamped into every dump. *)
val schema : string

(** Arm a fresh recorder (default capacity 1024 events); [dump_path]
    is where {!dump_on_raise} writes.
    @raise Invalid_argument when [capacity < 1]. *)
val install : ?capacity:int -> ?dump_path:string -> unit -> t

val uninstall : unit -> unit

(** [with_recorder f]: {!install}, run [f], {!uninstall} (also on
    exception); returns the recorder alongside [f]'s result. *)
val with_recorder :
  ?capacity:int -> ?dump_path:string -> (unit -> 'a) -> t * 'a

(** Is a recorder armed?  Guard dynamic event construction on this. *)
val enabled : unit -> bool

(** The armed recorder, if any. *)
val current : unit -> t option

(** [record ~kind data] appends one event (no-op when unarmed).  The
    ring wraps: only the most recent [capacity] events survive. *)
val record : kind:string -> (string * Json.t) list -> unit

(** Total events ever recorded (including overwritten ones). *)
val recorded : t -> int

(** Events lost to wraparound: [max 0 (recorded - capacity)]. *)
val dropped : t -> int

(** Surviving events in sequence order. *)
val events : t -> event list

val to_json : t -> Json.t
val to_string : t -> string
val write : path:string -> t -> unit

(** Record a [pipeline.raised] event and dump to the armed
    [dump_path]; returns the path written, or [None] when the recorder
    is off or pathless.  Called by [Dqc.Pipeline.compile] when a gate
    exception escapes. *)
val dump_on_raise : exn_name:string -> detail:string -> string option
