(** Classical bit-string outcomes.

    An outcome over [n] bits is stored as an [int] where bit [k] of the
    integer is classical bit [k].  The string rendering puts bit 0
    leftmost (reading order), e.g. value [0b01] over 2 bits renders as
    ["10"]. *)

(** [get v k] is bit [k] of [v]. *)
val get : int -> int -> bool

(** [set v k b] is [v] with bit [k] forced to [b]. *)
val set : int -> int -> bool -> int

(** [gather v positions] packs bits [positions.(0)], [positions.(1)],
    ... of [v] into bits 0, 1, ... of the result. *)
val gather : int -> int array -> int

(** [to_string ~width v] renders bit 0 first. *)
val to_string : width:int -> int -> string

(** [of_string s] parses the {!to_string} format.
    @raise Invalid_argument on non-binary characters. *)
val of_string : string -> int
