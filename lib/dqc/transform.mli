open Circuit

(** The paper's Algorithm 1: transform an n-qubit traditional circuit
    into a dynamic quantum circuit over one physical data qubit plus
    the answer qubits, using mid-circuit measurement, active reset and
    classically controlled gates.

    The input must be measurement-free and contain only gates with at
    most one quantum control (run {!Decompose.Pass.substitute_toffoli}
    first — choosing the Barenco or ancilla-unrolled netlist there is
    exactly the paper's dynamic-1 / dynamic-2 choice).

    {2 Data slots}

    [~slots:k] (an extension; the paper's design point is [k = 1])
    keeps the k most recent work qubits live on k physical data
    qubits, assigned round-robin.  Gates between co-live qubits stay
    quantum and only longer-range interactions become classically
    controlled, so k interpolates between the paper's DQC and the
    traditional circuit (k = the number of work qubits).  With one
    extra slot, dynamic-1 becomes sound-certified exact on the 2-input
    Table II benchmarks (experiment E11, {!min_exact_slots}).

    {2 Soundness modes}

    Algorithm 1 scans the input in program order each iteration and
    emits every gate whose operands match the current work qubit,
    {e without checking} that skipped-over pending gates commute with
    it.  For circuits whose data qubits only interact with answer
    qubits (BV, Toffoli-free DJ) every such reordering happens to be
    sound and the DQC is exactly equivalent.  When data qubits interact
    with each other (the CX sandwich of Eqn 1, the parity CXs of
    Eqn 3), the trailing Hadamard of a DJ data qubit is emitted past a
    pending non-commuting CX: the resulting DQC is {e not} exactly
    equivalent, which is the real source of the accuracy loss the paper
    plots in Fig 7 (its simulator is noiseless).

    - [`Algorithm1] reproduces the paper faithfully and records each
      unsound emission as a {!violation};
    - [`Sound] only emits a gate once every earlier pending gate
      commutes with it, raising {!Not_transformable} when the circuit
      cannot be scheduled soundly — useful as a static certificate that
      a DQC is exactly equivalent. *)

exception Not_transformable of string

(** An emission that jumped over earlier, non-commuting pending gates. *)
type violation = {
  iteration : int;  (** index in the iteration order *)
  emitted : Instruction.t;  (** gate (input indexing) that was emitted *)
  jumped_over : Instruction.t list;
      (** earlier pending gates that do not commute with it *)
}

type result = {
  circuit : Circ.t;
      (** the DQC: qubits [0..slots-1] are the physical data qubits
          (role Data), then the answers *)
  data_bit : (int * int) list;
      (** input data qubit -> classical register bit *)
  answer_phys : (int * int) list;  (** input answer qubit -> DQC qubit *)
  iteration_order : int list;  (** work qubits in iteration order *)
  violations : violation list;  (** empty in [`Sound] mode *)
  slots : int;
      (** physical data qubits: the requested count, capped at the
          number of work qubits *)
}

(** [transform ?mode ?mct ?slots c] runs the transformation
    ([mode] defaults to [`Algorithm1], [slots] to 1).  With [~mct:true]
    gates with two or more quantum controls are realized {e directly}:
    controls on measured data qubits become a conjunctive classical
    condition and live controls stay quantum — the dynamic
    multiple-control Toffoli realization the paper lists as future
    work.  With the default [~mct:false] such gates are rejected
    (decompose them first, as the paper does).

    Work qubits iterate in the smallest-index-first topological order
    of the Case-2 digraph.  When that digraph is cyclic and
    [slots >= 2], the order falls back to qubit-index order and the
    scheduler decides feasibility.
    @raise Not_transformable when a gate can never be emitted (e.g. a
    quantum gate targets an already-measured data qubit, an unmeasured
    ancilla would need to serve as a classical control, a multi-control
    gate was not decomposed, or [`Sound] scheduling gets stuck).
    @raise Interaction.Cyclic when Case-2 ordering is impossible.
    @raise Invalid_argument when [slots < 1]. *)
val transform :
  ?mode:[ `Algorithm1 | `Sound ] ->
  ?mct:bool ->
  ?slots:int ->
  Circ.t ->
  result

(** Smallest [slots] for which [`Sound] scheduling succeeds, searched
    up to the number of work qubits.  [None] when even the traditional
    width fails. *)
val min_exact_slots : ?mct:bool -> Circ.t -> int option

(** Count of classically controlled gates in the result — the metric
    the paper uses to contrast dynamic-1 and dynamic-2. *)
val conditioned_count : result -> int
