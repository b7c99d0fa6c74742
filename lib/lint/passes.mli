(** The general pass catalogue — structural checks meaningful for any
    dynamic circuit.  DQC-discipline passes are in {!Dqc_rules}; the
    combined registry lives in {!Lint}. *)

(** [Error]: a gate touches a freshly measured, never-reset qubit. *)
val use_after_measure : Pass.t

(** [Hint]: reset of a provably-|0⟩ qubit. *)
val redundant_reset : Pass.t

(** The catalogue, in order:
    - {!use_after_measure};
    - [cond-unmeasured-bit]: [Error] when a classical condition reads
      an [Unwritten] bit;
    - [contradictory-condition]: [Error] on an internally
      contradictory conjunction ([c3 == 1 && c3 == 0]); [Warning] on a
      test that contradicts a statically known bit value;
    - [measurement-clobbers-bit]: [Warning] when a measurement
      overwrites a result nothing has read;
    - {!redundant_reset};
    - [dead-gate]: [Warning] on a gate whose operands are all
      measured-and-never-referenced-again, which cannot affect any
      outcome;
    - [dead-bit]: [Hint] on a mid-circuit measurement whose result is
      never read;
    - [ancilla-not-zero]: [Error] when an ancilla provably ends in
      |1⟩; [Hint] when its return to |0⟩ cannot be verified
      statically. *)
val general : Pass.t list

(** [Warning]: a condition reads a bit whose latest write measured a
    qubit immediately after its reset with nothing in between — the
    recorded value is provably 0, so the test is constant.  Part of
    {!Lint.certifier_passes}, not {!general}. *)
val cond_after_clobber : Pass.t

(** [Warning]: a reset discards a qubit that may still carry coherence
    ([Superposed] or [Top]).  Legal, but the discarded state — down to
    a branch-dependent global phase — leaks into the environment, and
    the symbolic certifier must model it as a ghost observation, which
    weakens channel-scope proofs.  Part of {!Lint.certifier_passes},
    not {!general}. *)
val nonzero_global_phase_reset : Pass.t
