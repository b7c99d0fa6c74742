(** The outcome-tree walk: the one depth-first traversal of a compiled
    program's mid-circuit outcomes behind every sampled, exact and
    noisy run (the branch semantics of "Equivalence Checking of
    Dynamic Quantum Circuits", arXiv:2106.01658).

    A {!program} is the compiled ops cut into runs of unitary and
    conditioned ops between {e cuts}: every measure and reset, and any
    noise {!channel} placed before or after an op.  A branch of the
    walk is one state and what it carries.  Each run executes once per
    branch ({!Engine.Core.exec} with {!Program.no_random}); after the
    last run the branch reaches its leaf; at a cut the carrier decides
    how the branch parts.  Two carriers share that one recursion:

    - {b shot ranges} ({!shots}), behind {!Backend.run} and
      {!Noise.run_shots}.  A branch carries a range of the shots of a
      block.  At a measure or reset every shot of the range draws once
      from its own stream and takes outcome 1 when the draw is below
      the outcome's probability ([random < prob_one], the engines'
      contract); the range is reordered in place.  Where both outcomes
      were drawn and the walk {e holds}, the smaller side walks a copy
      of the state first while the larger waits, so a block holds at
      most [log2 shots + 2] states, one more while a shot that hit a
      channel walks alone; past the walk's width ({!holds}) no sibling
      waits, and each shot walks alone from a copy of the state where
      the shots part.  At a channel every shot draws once, [random <
      p], on the same partition: the shots that miss share the branch,
      on which [miss] runs once; each shot that hits walks alone from a
      copy, on which [hit] runs, drawing any further choice from that
      shot's own stream.  A channel whose [p] reads 0 on a branch draws
      nothing there.  So each shot sees the states and draws the
      numbers it would running alone from |0...0>, and the work is
      paid once per distinct branch;
    - {b probabilities} ({!probabilities}), behind {!Exact}.  A branch
      carries its probability.  At a measure or reset outcome 0 walks
      first, on a copy, and outcome 1 second, in place; each is kept
      when its probability times the branch's is above the prune
      threshold.  This order is the order the leaves are emitted in. *)

(** A noise channel: a cut at which each shot of a branch hits with
    probability [p st] (read once per branch). *)
type 's channel = {
  p : 's -> float;
  hit : Random.State.t -> 's -> unit;
      (** on the copy a hit shot walks alone, with that shot's stream *)
  miss : 's -> unit;  (** once, on the branch the missing shots share *)
}

(** A compiled program as the walk runs it: its runs and cuts. *)
type 's program

(** [program ?stop ?channels p] cuts ops [0, stop) of [p] (default: all
    of them) into runs between cuts: each measure and reset, and the
    channels [channels op] places before and after [op], in list
    order. *)
val program :
  ?stop:int ->
  ?channels:(Program.kernel -> 's channel list * 's channel list) ->
  Program.t ->
  's program

(** The walk's width: [holds units] is whether a branch may hold a
    sibling's state of [units] work units (amplitudes, live sparse
    entries or tableau bits) while the other side walks — at most
    2^16, so up to 16 qubits on the dense engine. *)
val holds : float -> bool

(** {1 Shot ranges} *)

(** One domain's block of shot streams, which the walk reorders as the
    shots part ways, the [(register, shots)] pairs of its leaves, and
    what telemetry reads of it. *)
type block

(** [execute ?domains ~seed ~shots ~hold ~width start] shards [shots]
    streams over {!Parallel.run}; every domain calls [start b lo hi] on
    its nonempty block, which walks from a fresh state.  [hold] is
    whether the blocks' branches may hold a sibling ({!holds}).

    Telemetry, once per block: the leaves it reached into
    [backend.walk.branches], its state copies into
    [backend.walk.copies], and the most states it held at once into
    the [backend.walk.peak_states] gauge (the maximum over the
    domains), besides {!Parallel.run}'s own. *)
val execute :
  ?domains:int ->
  seed:int ->
  shots:int ->
  hold:bool ->
  width:int ->
  (block -> int -> int -> unit) ->
  Runner.histogram

(** [shots (module E) b wp st lo hi leaf] walks [wp] on engine [E] from
    [st], shared by the shots [lo, hi) of [b]; [leaf st lo hi] receives
    each branch at the end of [wp]. *)
val shots :
  (module Engine.Core with type state = 's) ->
  block ->
  's program ->
  's ->
  int ->
  int ->
  ('s -> int -> int -> unit) ->
  unit

(** [tally b register lo hi] records the shots [lo, hi) as reading
    [register]. *)
val tally : block -> int -> int -> int -> unit

(** {1 Probabilities} *)

(** [probabilities (module E) ~prune wp st leaf] walks [wp] on engine
    [E] from [st] with probability 1, and hands [leaf] each branch
    whose probability is above [prune], in depth-first order.  Each
    leaf bumps the [sim.exact.leaves] counter.
    @raise Invalid_argument when [prune] is negative or NaN, or [wp]
    has a channel. *)
val probabilities :
  (module Engine.Core with type state = 's) ->
  prune:float ->
  's program ->
  's ->
  ('s -> float -> unit) ->
  unit
