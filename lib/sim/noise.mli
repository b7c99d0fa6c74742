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

(** [run_shots ?seed ?domains ?plan ~model ~shots c] tallies noisy
    trajectories, sharded across domains by the parallel shot engine
    ({!Parallel}): deterministic for a fixed [seed] regardless of
    [domains].  Trajectories execute a compiled program
    ({!Program.compile}, whose one op per gate gives every gate its
    own noise injection point).  When the model injects no noise into
    the deterministic prefix (before the first measurement/reset) the
    prefix segment is simulated once and shared across all
    trajectories.  [plan] appends terminal measurements.
    Trajectories run on the dense statevector. *)
val run_shots :
  ?seed:int ->
  ?domains:int ->
  ?plan:Measurement_plan.t ->
  model:model ->
  shots:int ->
  Circ.t ->
  Runner.histogram

(** [expected_outcome_probability ?seed ~model ~shots ~expected c]
    is the fraction of noisy shots whose register equals [expected] —
    the quantity plotted in Fig 7. *)
val expected_outcome_probability :
  ?seed:int ->
  ?domains:int ->
  model:model ->
  shots:int ->
  expected:int ->
  Circ.t ->
  float
