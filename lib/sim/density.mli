open Circuit

(** Exact density-matrix simulation with noise channels.

    Where {!Noise} samples noisy trajectories (Monte-Carlo), this
    module evolves the density matrix through the same channels and
    yields the {e exact} noisy outcome distribution — no sampling
    error, at the cost of 4^n state (capped at 8 qubits, ample for
    2-qubit dynamic circuits).

    Classical correlations from mid-circuit measurement are tracked by
    branching: the state is a map from register values to unnormalized
    conditional density matrices, so classically controlled gates and
    readout errors compose exactly.

    Channel placement mirrors {!Noise.run_shots}: depolarizing after
    each unitary (per involved qubit), feed-forward dephasing per
    conditioned gate, readout bit-flip on measurement records, reset
    residual excitation. *)

type t

(** [run ?model c] evolves |0..0><0..0| through the circuit;
    [model] defaults to {!Noise.ideal}.
    @raise Invalid_argument beyond 8 qubits. *)
val run : ?model:Noise.model -> Circ.t -> t

(** Exact distribution over the classical register. *)
val register_distribution : t -> Dist.t

(** [measured_distribution ?model ~measures c] appends terminal
    measurements (ideal readout on them unless [model] says otherwise)
    and returns the exact register distribution. *)
val measured_distribution :
  ?model:Noise.model -> measures:(int * int) list -> Circ.t -> Dist.t

(** Tr(rho^2) of the total (register-averaged) state: 1 on pure
    states, 1/2^n at the maximally mixed state. *)
val purity : t -> float

(** Total trace (should be 1 up to numerics) — a sanity check that
    every channel is trace-preserving. *)
val trace : t -> float
