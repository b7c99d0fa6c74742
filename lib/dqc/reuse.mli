open Circuit

(** General qubit reuse by causal-cone analysis — the move the
    dynamic-circuit compilation literature generalizes from the
    paper's Toffoli-network transform: a physical wire whose hosted
    qubit has retired (no remaining instruction touches it) can be
    reset and re-serve as a {e later} qubit's wire, shrinking circuit
    width without touching the outcome channel.

    The rewiring is commutation-aware: instructions form a dependency
    DAG with an edge between two program-ordered instructions exactly
    when they share a qubit or classical bit {e and}
    {!Commute.instrs} cannot prove them interchangeable (one
    {!Commute.memo} per [rewire] call).  Any linear
    extension of that DAG is reachable from the original order by
    adjacent commuting swaps, so scheduling over it is sound.  A
    lazy-allocation list scheduler then picks, among ready
    instructions, the one activating the fewest not-yet-allocated
    qubits (ties resolve to the smallest program index, making the
    result deterministic); a qubit's first instruction allocates the
    lowest retired wire — behind a fresh [Reset] — or a brand-new wire
    when none has retired.

    The transform never claims its own correctness: the pipeline's
    reuse flow hands every rewired circuit to the path-sum certifier
    ({!Verify.Certify.check_channel}) and records the verdict. *)

type report = {
  qubits_before : int;
  qubits_after : int;
  chains : (int * int list) list;
      (** wires hosting two or more original qubits, as
          [(wire, hosted qubits in activation order)], ascending *)
  resets_inserted : int;  (** one per re-hosting *)
  resets_pruned : int;
      (** inserted resets later removed because the abstract
          interpreter proved the wire already |0> ({!prune_resets}) *)
}

(** Qubits saved: [qubits_before - qubits_after]. *)
val saved : report -> int

(** [rewire c] returns the rewired circuit and its report.
    When no wire can host a second qubit, [c] itself is returned (same
    physical value — callers may test with [==]) with an empty-chain
    report.  Classical bits are never remapped, so the rewired circuit
    records its measurements into exactly the original register —
    the property the channel certification rests on. *)
val rewire : Circ.t -> Circ.t * report

(** [prune_resets c] interprets [c] and drops every [Reset q] whose
    pre-state already proves qubit [q] is |0>
    ({!Lint.Deadness.provably_zero}, the fact behind the linter's
    [redundant-reset] hint).  It returns the pruned circuit ([c]
    itself when no reset goes) and the number of resets removed. *)
val prune_resets : Circ.t -> Circ.t * int

val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string
