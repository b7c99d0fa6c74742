open Circuit

(** Functional-equivalence checking between a traditional circuit and
    its dynamic realization (§V: "the probability of expected outcome
    obtained from the traditional circuit and the resulting DQC are
    exactly same").

    Both sides are evaluated with the exact branching simulator
    ({!Sim.Exact}), and compared as joint distributions over
    (data bits, answer bits): for the traditional circuit the data
    qubits are measured at the end into the bits the transformation
    assigned them; for the DQC those bits were written by mid-circuit
    measurements and only the answer qubits are measured at the end. *)

(** Exact joint distribution of a traditional circuit: every data qubit
    measured into its transformation-assigned bit, answer qubit [k]
    into bit [num_data + k].  Ancilla qubits are traced out; scratch
    data qubits the DQC-shaped MCT reduction added (absent from the
    original circuit) are excluded. *)
val traditional_distribution : Circ.t -> Transform.result -> Sim.Dist.t

(** Exact joint distribution of the DQC with answer qubits measured
    into the same bit layout.  With [?relative_to] the distribution is
    marginalized onto the bits shared with that original circuit (as
    {!traditional_distribution} does). *)
val dynamic_distribution : ?relative_to:Circ.t -> Transform.result -> Sim.Dist.t

(** Total-variation distance between the two distributions: 0 means
    exact functional equivalence. *)
val tv_distance : Circ.t -> Transform.result -> float

(** [equivalent ?eps traditional result] with [eps] defaulting to
    1e-9 on the TV distance. *)
val equivalent : ?eps:float -> Circ.t -> Transform.result -> bool

(** [sampled_tv_distance c r] estimates the same TV distance from
    4096-shot histograms that {!Sim.Backend.run} draws under Auto —
    available where exact branch enumeration is not (e.g. Clifford
    circuits at hundreds of qubits, on the tableau).  Expect
    O(sqrt(support / 4096)) sampling noise on top of the true
    distance. *)
val sampled_tv_distance : Circ.t -> Transform.result -> float
