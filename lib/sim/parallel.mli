(** OCaml 5 [Domain]-based shot engine.

    Shots are sharded into contiguous blocks across worker domains;
    each shot [i] draws from its own RNG state, derived by splitting a
    root state seeded with [seed] ({!Random.State.split}, LXM).  The
    per-shot derivation is what makes the result {e deterministic
    regardless of the domain count}: outcome [i] depends only on
    [(seed, i)], and per-domain tallies merge additively, so
    [domains:1] and [domains:N] produce byte-identical histograms.

    The paper's evaluation replays every configuration at 1024 shots;
    this engine is the scaling seam of the sampled runs — {!Backend.run}
    dispatches the dense, sparse, tableau and hybrid engines through
    it.  An exact run does not come here: it draws every shot from
    one RNG stream ({!Dist.draw}), so it neither splits a state per
    shot nor spawns a domain.

    Telemetry (when an [Obs] collector is installed): a [parallel.run]
    span wrapping the whole dispatch, one [parallel.block] span per
    contiguous shot block with [parallel.block.<k>.shots] /
    [parallel.block.<k>.wall_ns] tallies, a [parallel.shots] counter,
    and one shot in {!shot_sample_every} timed into the
    [parallel.shot] latency histogram.  Worker domains flush their
    telemetry buffers before finishing, so per-domain records merge at
    join and counter totals are independent of the domain count. *)

(** [Domain.recommended_domain_count ()] — the default worker count. *)
val recommended_domains : unit -> int

(** Per-shot timing sample stride: shots whose global index is a
    multiple of this are timed into [parallel.shot].  Keyed on the
    shot index — not a per-domain tick — so which shots are observed,
    and the histogram count, are independent of the domain count.
    Timing every shot would cost ~2-3% of a prefix-cached run, over
    the <2% telemetry budget (docs/OBSERVABILITY.md). *)
val shot_sample_every : int

(** [run ?domains ?seed ~width ~shots f] tallies
    [f ~rng ~index:i] for [i = 0 .. shots-1] into a histogram of the
    given bit [width].  [f] runs concurrently on [domains] workers
    (default {!recommended_domains}; clamped to [shots]) and must not
    share mutable state across calls beyond [rng], which is private to
    shot [index].  [seed] defaults to {!Runner.default_seed}, as
    [Backend.run]'s does, so the default-seed contract is
    engine-independent.
    @raise Invalid_argument when [shots < 0] or [domains < 1]. *)
val run :
  ?domains:int ->
  ?seed:int ->
  width:int ->
  shots:int ->
  (rng:Random.State.t -> index:int -> int) ->
  Runner.histogram
