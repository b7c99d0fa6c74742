(** Shot histograms — what {!Backend.run} and {!Noise.run_shots}
    return — and the default seed of the shot engines. *)

type histogram

(** The default RNG seed (0xC0FFEE) of {!Parallel.run} and
    [Backend.run]: a caller that picks no seed samples the same
    configuration whichever engine runs. *)
val default_seed : int

(** [of_counts ~width pairs] builds a histogram from (outcome, count)
    pairs (duplicates accumulate; total = sum of counts).
    @raise Invalid_argument on a negative count. *)
val of_counts : width:int -> (int * int) list -> histogram

(** [merge a b] sums two histograms of equal width — the reduction the
    parallel shot engine applies to per-domain tallies.
    @raise Invalid_argument on width mismatch. *)
val merge : histogram -> histogram -> histogram

val shots : histogram -> int
val width : histogram -> int

(** Observed count for an outcome. *)
val count : histogram -> int -> int

(** Observed frequency (count / shots). *)
val frequency : histogram -> int -> float

(** Empirical distribution. *)
val to_dist : histogram -> Dist.t

(** All (outcome, count) pairs, ascending by outcome. *)
val to_list : histogram -> (int * int) list

val pp : Format.formatter -> histogram -> unit
