(** Probability distributions over classical bit-string outcomes
    (register values encoded as in {!Bits}). *)

type t

(** [create ~width pairs] builds a distribution; probabilities are
    clipped at 0 and the result is NOT renormalized. *)
val create : width:int -> (int * float) list -> t

val width : t -> int

(** Probability of an outcome (0 when absent). *)
val prob : t -> int -> float

(** Outcomes with probability above 1e-12, ascending. *)
val support : t -> int list

(** All (outcome, probability) pairs, ascending by outcome. *)
val to_list : t -> (int * float) list

val total : t -> float

(** Rescale to total mass 1.  @raise Invalid_argument on zero mass. *)
val normalize : t -> t

(** Total-variation distance (1/2 L1). *)
val tv_distance : t -> t -> float

(** [approx_equal ?eps a b] holds when every outcome's probabilities
    differ by at most [eps] (default 1e-9). *)
val approx_equal : ?eps:float -> t -> t -> bool

(** [map_outcome f d] pushes the distribution through [f] (merging
    collisions); the result has width [width']. *)
val map_outcome : width':int -> (int -> int) -> t -> t

(** [marginal ~bits d] keeps only the given register bits (in the given
    order: output bit [k] is input bit [List.nth bits k]). *)
val marginal : bits:int list -> t -> t

(** Most probable outcome. @raise Invalid_argument on empty support. *)
val mode : t -> int * float

(** {1 Sampling}

    Walker's alias method: O(support) preprocessing, O(1) per draw —
    turning an exact distribution (from {!Exact} or {!Density}) into a
    shot source far cheaper than re-simulating per shot. *)

type sampler

(** The alias table of [d], built from one sorted pass over it
    (normalizes internally).
    @raise Invalid_argument on an empty distribution. *)
val sampler : t -> sampler

(** [draw sm rng ~shots] draws [shots] outcomes from [rng], two reads
    of it per draw, and returns the (outcome, count) pairs of the
    outcomes drawn at least once, ascending by outcome.  The counts
    depend only on the sampler and [rng]'s state. *)
val draw : sampler -> Random.State.t -> shots:int -> (int * int) list

val pp : Format.formatter -> t -> unit
