(** Relational abstract domain of the linter: an entanglement partition
    over qubits joined with GF(2) affine relations among basis values of
    qubits and classical bits.

    An element abstracts the set of reachable (basis state, classical
    record) pairs of a run: every computational-basis vector carrying
    nonzero amplitude, together with the branch's classical register.

    - The {e partition} groups qubits into blocks such that qubits in
      different blocks are provably unentangled.  Each block carries a
      {e superposition rank}: the number of superposing events (H, V,
      Rx, ...) whose branching dimension may still be live in the
      block, so the block populates at most [2^rank] basis values.
    - The {e affine rows} are linear equations over GF(2) in the
      variables [x_q] (basis value of qubit [q]), [x_b] (classical bit
      [b]) and the constant [1], valid on every reachable pair — facts
      like "q3 = q1 XOR q5" or "b0 = q2 XOR 1".  Rows are kept as a
      canonical reduced echelon basis ({!Gf2.reduced}), so structural
      equality decides semantic equality.

    Rows are packed into a single OCaml [int] (bit [q] = qubit [q],
    bit [num_qubits + b] = classical bit [b], top bit = constant); when
    [2 * (num_qubits + num_bits + 1) > Sys.int_size - 1] the row
    component degrades to "no information" (the partition and ranks
    remain sound) — see {!tracked}.

    The rank join is a sound upper-bound operator but {e not} a least
    upper bound (the rank order is not a lattice: incomparable minimal
    upper bounds exist), so [join] is commutative, idempotent and
    monotone, but only associative up to mutual bounding.  The property
    tests in [test/test_reldom.ml] pin down exactly which laws hold. *)

type t

(** Fresh program state: all qubits |0>, all classical bits 0 — every
    qubit a singleton rank-0 block, with rows [x_q = 0] and [x_b = 0]
    for every qubit and bit. *)
val init : num_qubits:int -> num_bits:int -> t

(** Whether the affine-row component is live for these dimensions. *)
val tracked : t -> bool

(** Transfer function.  [hint] supplies per-qubit facts from the
    non-relational lattice (default: no information); [Zero]/[One]
    hints are saturated into the rows before the transfer, which is
    what makes the transfer monotone on the product domain. *)
val step : ?hint:(int -> Absdom.Qubit.t) -> t -> Circuit.Instruction.t -> t

(** Sound upper bound: commutative, idempotent, monotone; see the
    caveat on rank associativity above. *)
val join : t -> t -> t

(** Abstract-order test: partition refinement, capped rank dominance,
    and row-span inclusion. *)
val leq : t -> t -> bool

(** Structural equality of canonical forms (decides semantic equality
    of the partition and row components). *)
val equal : t -> t -> bool

(** [implied_qubit t q] is [Some v] when the rows prove qubit [q]'s
    basis value is [v] on every reachable branch. *)
val implied_qubit : t -> int -> bool option

(** [implied_bit t b] likewise for classical bit [b]. *)
val implied_bit : t -> int -> bool option

(** [branch_constant t q] holds when the rows tie qubit [q]'s basis
    value to the classical bits alone: [q] lies in the span of the
    rows' qubit parts.  [q] then reads the same value on every
    reachable pair with one register — within one branch of an exact
    enumeration, whose register is fixed — so collapsing it never
    forks there.  Implied by [implied_qubit t q <> None]. *)
val branch_constant : t -> int -> bool

(** Sound upper bound on [log2] of the number of nonzero amplitudes of
    any reachable branch state: per entangled block, the minimum of the
    capped superposition rank, the block size, and the block's free
    dimensions under the affine rows (qubits of rank-0 blocks and
    classical bits act as per-branch constants). *)
val log2_support_bound : t -> int

(** Blocks as (members, capped rank) pairs, ascending by representative
    — for reports and debugging. *)
val blocks : t -> (int list * int) list
