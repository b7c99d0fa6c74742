(** The pluggable execution-engine abstraction.

    [Core] is what every engine implements and all the outcome-tree
    walk ({!Walk}) uses: state lifecycle (create/copy), the
    compiled-op replay ({!Core.exec} over {!Program.kernel} ops), the
    collapse primitives ({!Core.prob_one}, {!Core.project}) and the
    joint outcome law.  [S] adds the dense handoff
    ({!S.of_state}/{!S.to_state}), which only a hybrid run's step
    boundaries need.

    Instances: {!Statevector.Dense_engine} (dense SoA amplitudes,
    capped at {!State.max_qubits}) and {!Sparse.Sparse_engine}
    (hash-map basis-amplitude storage, memory per {e nonzero}
    amplitude) implement [S]; {!Stabilizer.Tableau_engine} (the CHP
    tableau, Clifford kernels only) implements [Core].  {!Backend}
    prices and picks among them — per whole circuit or, between dense
    and sparse, per analyzer segment (hybrid execution).

    Contract every instance honours, so shot streams are
    seed-deterministic {e across} engines: randomness is consumed
    only by measure and reset ops, in source order, one draw each, and
    a measure decides the outcome as [random < prob_one], then
    collapses with [project] and records it with [set_bit]; a reset
    does the same and, on outcome 1, [flip]s.  Two engines that agree
    on probabilities (within pruning tolerance) replay identical shot
    streams from the same split-RNG stream, and the walk, which reads
    [prob_one] once per branch, draws once per shot and collapses each
    side with [project], sees what a replay of each shot alone ([exec],
    [run]) would. *)

module type Core = sig
  type state

  (** Engine tag used in telemetry and reports ("dense", "sparse",
      "stabilizer"). *)
  val name : string

  (** [create n ~num_bits] is |0...0> with an all-zero classical
      register. *)
  val create : int -> num_bits:int -> state

  val copy : state -> state
  val register : state -> int
  val set_bit : state -> int -> bool -> unit

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

  (** Take over a dense state — the handoff into this engine (the
      identity on the dense engine). *)
  val of_state : State.t -> state

  (** Densify — the handoff out of this engine (the identity on the
      dense engine).
      @raise State.Dense_cap_exceeded when [2^n] does not fit. *)
  val to_state : state -> State.t
end
