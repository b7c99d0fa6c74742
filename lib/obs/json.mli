(** Minimal JSON emitter and reader for the telemetry exporters — no
    dependencies, strings escaped per RFC 8259 (non-finite floats are
    emitted as [null]).  The parser exists so the bench regression
    gate can read back a checked-in baseline document. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** Write the value to [path] followed by a newline. *)
val write : path:string -> t -> unit

exception Parse_error of string

(** Parse one JSON document.  @raise Parse_error on malformed input. *)
val parse : string -> t

(** Parse the file at [path].
    @raise Parse_error on malformed input, [Sys_error] on IO failure. *)
val read : path:string -> t

(** [member key j] is the field [key] of object [j], [None] when [j]
    is not an object or lacks the field. *)
val member : string -> t -> t option

(** Numeric coercion: [Int] and [Float] only. *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option
