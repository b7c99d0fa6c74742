open Circuit

(** Commutation oracle between instructions, used by the DQC scheduler
    to decide whether moving a gate ahead of pending ones is sound.

    Structural fast paths (disjoint supports, diagonal-diagonal pairs)
    avoid matrix work; everything else falls back to computing the
    commutator on the joint support.  That matrix check depends only
    on the {e canonical pair}: both gates, with controls and targets
    renumbered over the sorted union of their supports.  The same few
    canonical pairs recur across a compile (a Table II or MCT oracle
    meets at most a dozen), so {!instrs} answers each one from a
    {!memo} after its first check. *)

(** A table from canonical pairs to their matrix verdicts.  It lives
    for one caller's run: {!Transform.transform} and
    {!Reuse.rewire} each make a fresh one per call, so no table
    outlives a compile and none is shared between domains. *)
type memo

val memo : unit -> memo

(** [instrs memo a b] is a sound (possibly conservative) commutation
    test for arbitrary instructions; on two unitary applications it is
    exact (up to 1e-9 on the commutator norm), and it records each
    matrix verdict in [memo].  Classically conditioned gates only read
    the register, so two conditioned gates (or a conditioned and a
    plain gate) commute exactly when their unitary applications do;
    measurements and resets commute with anything only on disjoint
    qubit and bit supports. *)
val instrs : memo -> Instruction.t -> Instruction.t -> bool
