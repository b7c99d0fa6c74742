(** The pluggable execution-engine abstraction.

    [Core] is what every engine implements and all that {!Exact}'s
    enumerator and a single-engine run of {!Backend}'s plan executor
    use: state lifecycle (create/copy), the compiled-op replay
    ({!Core.apply}/{!Core.exec} over {!Program.kernel} ops), the
    collapse primitives ({!Core.measure}/{!Core.reset}/{!Core.project})
    and the probability observers.  [S] adds the statevector extras —
    amplitudes and the dense handoff ({!S.of_state}/{!S.to_state}) —
    which only hybrid runs ({!convert}) need.

    Instances: {!Statevector.Dense_engine} (dense SoA amplitudes,
    capped at {!State.max_qubits}) and {!Sparse.Sparse_engine}
    (hash-map basis-amplitude storage, memory per {e nonzero}
    amplitude) implement [S]; {!Stabilizer.Tableau_engine} (the CHP tableau,
    Clifford kernels only) implements [Core].  {!Backend} prices and
    picks among them — per whole circuit or, between dense and sparse,
    per analyzer segment (hybrid execution) — and {!Exact} enumerates
    measurement branches on any of them.

    Contract every instance honours, so shot streams are
    seed-deterministic {e across} engines: randomness is consumed
    only by [measure]/[reset], in source order, one draw each; and
    [measure] decides the outcome as [random < prob_one], so two
    engines that agree on probabilities (within pruning tolerance)
    replay identical shot streams from the same split-RNG stream. *)

module type Core = sig
  type state

  (** Engine tag used in telemetry and reports ("dense", "sparse",
      "stabilizer"). *)
  val name : string

  (** Widest register {!create} accepts — a memory cap for dense
      storage, an index-width cap for sparse, the tableau's row cap. *)
  val max_qubits : int

  (** [create n ~num_bits] is |0...0> with an all-zero classical
      register. *)
  val create : int -> num_bits:int -> state

  val copy : state -> state
  val num_qubits : state -> int
  val num_bits : state -> int
  val register : state -> int
  val set_register : state -> int -> unit
  val set_bit : state -> int -> bool -> unit
  val get_bit : state -> int -> bool

  (** Probability that measuring the qubit yields 1. *)
  val prob_one : state -> int -> float

  (** Apply a unitary or conditioned compiled op in place.
      @raise Invalid_argument on a measure/reset op. *)
  val apply : state -> Program.kernel -> unit

  (** Collapse a qubit onto an outcome; returns the branch probability.
      @raise State.Zero_probability_branch when that probability is 0. *)
  val project : state -> int -> bool -> float

  (** In-place Pauli-X (exact amplitude swap / key remap / sign flip). *)
  val flip : state -> int -> unit

  val measure : random:float -> state -> qubit:int -> bit:int -> bool
  val reset : random:float -> state -> int -> unit

  (** Replay a whole compiled program; [random] is consulted by
      measure/reset ops only, in source order. *)
  val exec : random:(unit -> float) -> state -> Program.t -> unit

  (** Execute the program from a fresh |0...0> state. *)
  val run : rng:Random.State.t -> Program.t -> state

  (** [outcome_probabilities st qubits] is the Born distribution of
      measuring the distinct [qubits] together, without collapsing
      [st]: [(outcome, p)] pairs with nonzero [p], ascending by
      outcome, where bit [j] of [outcome] is the result on
      [qubits.(j)] ({!Bits.gather} of the basis index).  Over every
      qubit in order it is the basis-state distribution — the
      width-safe distribution extractor. *)
  val outcome_probabilities : state -> int array -> (int * float) list
end

module type S = sig
  include Core

  (** Number of stored (structurally nonzero) amplitudes. *)
  val nonzero : state -> int

  val norm2 : state -> float

  (** Amplitude of one computational basis state. *)
  val amplitude : state -> int -> Complex.t

  (** Probability of each basis state, as a dense [2^n] array.
      @raise State.Dense_cap_exceeded when [2^n] does not fit
      (sparse states past the dense cap); use
      {!outcome_probabilities} there. *)
  val probabilities : state -> float array

  (** Take over a dense state — the handoff into this engine (the
      identity on the dense engine). *)
  val of_state : State.t -> state

  (** Densify — the handoff out of this engine (the identity on the
      dense engine).
      @raise State.Dense_cap_exceeded when [2^n] does not fit. *)
  val to_state : state -> State.t
end

(** A statevector packed with its engine — what {!Backend}'s plan
    executor threads through the steps of a hybrid shot. *)
type packed = Packed : (module S with type state = 's) * 's -> packed

val pack : (module S with type state = 's) -> 's -> packed
val register : packed -> int
val exec : random:(unit -> float) -> packed -> Program.t -> unit

(** [convert e p] hands [p] over to engine [e]: [p] itself when it
    already lives there (same {!S.name}), otherwise [e]'s [of_state]
    of [p]'s [to_state].
    @raise State.Dense_cap_exceeded when the handoff densifies past
    the dense cap. *)
val convert : (module S) -> packed -> packed
