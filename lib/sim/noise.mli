open Circuit

(** Monte-Carlo (quantum-trajectory) noise model.

    The paper's Fig 7 compares the probability of the expected outcome
    on noisy executions of traditional, dynamic-1 and dynamic-2
    circuits.  Its separation is driven by the cost of *dynamic*
    primitives, which this model captures with four channels:

    - depolarizing error after every 1-qubit / multi-qubit unitary;
    - classical bit-flip on measurement records;
    - imperfect active reset (residual |1> population);
    - {b feed-forward dephasing}: executing a classically controlled
      gate requires a real-time classical round trip, during which live
      qubits dephase.  A Z error is injected with probability
      [p_feedforward_z] — by default on the conditioned gate's target
      qubit ([`Target]), optionally on every qubit ([`All_qubits]).

    Dephasing is harmless to computational-basis states, so conditional
    gates acting on a freshly reset ancilla iteration (dynamic-2) are
    cheap while conditional gates acting mid-Toffoli on a superposed
    data qubit (dynamic-1) are destructive — reproducing the Fig 7
    ordering. *)

type scope = [ `Target | `All_qubits ]

type model = {
  p_depol1 : float;  (** per 1-qubit unitary, on its qubit *)
  p_depol2 : float;  (** per multi-qubit unitary, on each involved qubit *)
  p_meas_flip : float;  (** measurement readout bit-flip *)
  p_reset_flip : float;  (** reset ends in |1> with this probability *)
  p_feedforward_z : float;  (** Z error per classically controlled gate *)
  p_amp_damp : float;
      (** amplitude-damping (T1 relaxation) strength applied per
          involved qubit after each unitary *)
  feedforward_scope : scope;
}

(** All probabilities zero. *)
val ideal : model

(** Defaults loosely modelled on 2022-era IBM heavy-hex devices:
    depol1 = 0.0005, depol2 = 0.01, meas flip = 0.02,
    reset flip = 0.01, feed-forward Z = 0.04 on the target. *)
val default : model

val validate : model -> unit
(** @raise Invalid_argument when a probability is outside [0, 1]. *)

(** [run_shots ?seed ?domains ~model ~shots c] tallies [shots] noisy
    shots of [c] on the dense statevector: the outcome-tree walk
    ({!Walk.shots}) of the compiled program ({!Program.compile}, whose
    one op per gate gives every gate its own injection point), with
    each channel of [model] a cut at which every shot of a branch
    draws from its own stream.  A shot draws as it would running alone:
    after each unitary, for each qubit it touches (the controls
    ascending, then the target), depolarizing (a float, then on a hit
    the Pauli) and then damping; before a conditioned gate, the
    feed-forward dephasing, whether or not it fires; after one that
    fires, depolarizing; after a measure or reset, its outcome and then
    its flip.  Deterministic for a fixed [seed] (default [0xD1CE])
    whatever [domains].
    @raise Invalid_argument as {!validate}. *)
val run_shots :
  ?seed:int ->
  ?domains:int ->
  model:model ->
  shots:int ->
  Circ.t ->
  Runner.histogram
