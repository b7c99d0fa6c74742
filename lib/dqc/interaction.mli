open Circuit

(** Data-qubit interaction analysis — the paper's Case 2.

    A 2-qubit gate between work qubits (data or ancilla) forces its
    control's iteration before its target's iteration, because the
    control must already be measured for the gate to become classically
    controlled.  The iteration order is any topological order of the
    resulting digraph; ties are broken by ascending qubit index so the
    order is deterministic. *)

exception Cyclic of int list
(** Raised with the offending qubits when the interaction digraph has a
    cycle: the circuit cannot be dynamically transformed with this
    decomposition. *)

(** Edges (control, target) between work qubits, deduplicated. *)
val edges : Circ.t -> (int * int) list

(** Iteration order over the work qubits (data and ancilla).
    @raise Cyclic (see above). *)
val iteration_order : Circ.t -> int list
