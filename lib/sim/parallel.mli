(** OCaml 5 [Domain]-based shot engine.

    Each shot [i] draws from its own RNG state, derived by splitting a
    root state seeded with [seed] ({!Random.State.split}, LXM), one
    split per shot in index order.  The streams are sharded into
    contiguous blocks, one per worker domain, and each domain tallies
    its block however it likes.  The per-shot derivation is what makes
    the result {e deterministic regardless of the domain count}: a
    shot's outcome depends only on its own stream, and per-block
    tallies merge additively, so [domains:1] and [domains:N] produce
    byte-identical histograms.

    The paper's evaluation replays every configuration at 1024 shots;
    this engine is the scaling seam of the sampled runs — {!Backend.run}
    and {!Noise.run_shots} walk each block's outcome tree on it
    ({!Walk.execute}).  An exact run does not come here: it
    draws every shot from one RNG stream ({!Dist.draw}), so it neither
    splits a state per shot nor spawns a domain.

    Telemetry (when an [Obs] collector is installed): a [parallel.run]
    span wrapping the whole dispatch, one [parallel.block] span per
    contiguous shot block with [parallel.block.<k>.shots] /
    [parallel.block.<k>.wall_ns] tallies, and a [parallel.shots]
    counter.  Worker domains flush their telemetry buffers before
    finishing, so per-domain records merge at join and counter totals
    are independent of the domain count. *)

(** [Domain.recommended_domain_count ()] — the default worker count. *)
val recommended_domains : unit -> int

(** [run ?domains ?seed ~width ~shots f] splits [shots] streams from
    [seed] and calls [f rngs ~lo ~hi] once per block, on its own
    domain: [rngs] holds every shot's stream and the block owns
    [rngs.(lo) .. rngs.(hi - 1)], which [f] may draw from and permute
    among themselves (a stream is a shot's identity; its index is not).
    [f] returns the block's (outcome, count) pairs, duplicates allowed,
    and the blocks' pairs merge into a histogram of the given bit
    [width].  The blocks run concurrently on [domains] workers (default
    {!recommended_domains}; clamped to [shots]), so [f] must not share
    mutable state across blocks.  [seed] defaults to
    {!Runner.default_seed}, as [Backend.run]'s does, so the
    default-seed contract is engine-independent.
    @raise Invalid_argument when [shots < 0] or [domains < 1]. *)
val run :
  ?domains:int ->
  ?seed:int ->
  width:int ->
  shots:int ->
  (Random.State.t array -> lo:int -> hi:int -> (int * int) list) ->
  Runner.histogram
