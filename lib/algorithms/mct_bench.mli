(** Multiple-control Toffoli benchmark oracles — workloads for the
    paper's stated future work ("dynamic realization of Multiple
    Control Toffoli gates and their networks").

    Each generator produces an [n]-input oracle whose body is one or a
    few [C^nX] gates, exercising both the direct dynamic MCT
    realization ([Dqc.Transform.transform ~mct:true] /
    [Toffoli_scheme.Direct_mct]) and the decomposition route
    (V-chain reduction followed by dynamic-1 / dynamic-2). *)

(** [and_n n] : f = x0 AND ... AND x_{n-1}, a single C^nX.
    @raise Invalid_argument unless 1 <= n <= 12. *)
val and_n : int -> Oracle.t

(** [or_n n] : f = x0 OR ... OR x_{n-1}, via the ANF synthesizer
    (2^n - 1 monomials — the worst case). *)
val or_n : int -> Oracle.t

(** [nand_n n] : NOT of {!and_n}. *)
val nand_n : int -> Oracle.t

(** [majority_n n] : 1 when more than half the inputs are 1 (odd [n]),
    via the ANF synthesizer. *)
val majority_n : int -> Oracle.t

(** [xor_n n] : parity of the inputs, a chain of [n] CXs — no MCT, so
    it scales to widths the exact checkers cannot reach (the symbolic
    certifier's wide workload).
    @raise Invalid_argument unless 1 <= n <= 20. *)
val xor_n : int -> Oracle.t

(** [adaptive_parity n] : a complete dynamic circuit (not an oracle) —
    [n] data qubits in uniform superposition, a CX parity chain onto an
    answer qubit, then a syndrome-ancilla readout guarding a
    (statically dead) conditioned T/X correction before the parity
    measurement.  Its only non-Clifford gate provably never fires, so
    the circuit is {e observationally} Clifford while its own compiled
    program fails {!Sim.Stabilizer.supports} — the witness workload for
    the tableau engines, which run the analyzer's witness.  [n + 2]
    qubits, 2 classical bits (bit 0: syndrome, bit 1: parity).
    @raise Invalid_argument unless 1 <= n <= 20. *)
val adaptive_parity : int -> Circuit.Circ.t

(** The benchmark set used in the future-work experiment:
    AND_n for n = 2..5 plus MAJ_3 and MAJ_5. *)
val suite : Oracle.t list
