open Circuit

(** Symbolic equivalence certification of a transform result against
    its traditional original — the no-simulation equivalence gate (see
    {!Verify.Certify} for the verdict semantics and
    [docs/VERIFICATION.md] for the method). *)

(** [certify c r] proves [r.circuit] equivalent to [c]: channel scope
    when the outcome distributions over the shared bits provably
    coincide, dynamics scope when only the mid-circuit machinery is
    certified (expected whenever [r.violations] is non-empty). *)
val certify : Circ.t -> Transform.result -> Verify.Certify.verdict

(** Fault injection for demonstrations and gate tests: flip the qubit
    under the first measurement, changing a recorded bit.  The
    certifier first compares the two channels, so a flip that leaves
    the outcome distribution over the shared bits unchanged still
    proves at channel scope: on the 2-input DJ oracles the data bits
    are uniform, and flipping one changes nothing.  Otherwise a
    violation-free schedule is [Refuted].  On a schedule that carries
    violations the dynamics-scope claim survives — it certifies the
    DQC against the coherent replay of its own (now corrupted) stream,
    so the fault is absorbed into the schedule deviation the verdict
    already witnesses.  The gate tests therefore corrupt a
    violation-free benchmark whose flip is visible (DJ_XOR under
    dynamic-1). *)
val corrupt : Circ.t -> Circ.t
