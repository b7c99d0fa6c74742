(** Normalization of path sums by Amy-style rewriting.

    Three rules run to a fixpoint, each removing path variables while
    preserving the sum exactly:

    - {b Elim} — a variable occurring nowhere sums to 2: drop it,
      [scale -= 2];
    - {b HH} — a variable occurring only as the phase term 4·y·R sums
      to 2·[R = 0]; the constraint is eliminated by solving for a
      linearly occurring variable and substituting (or kills the
      amplitude when R ≡ 1);
    - {b ω} — a variable occurring only as y·(c + 4·R), c ∈ {2,6},
      sums to √2·ω^{±(1+2·L(R))·…}: drop it, [scale -= 1], fold the
      residual phase back in.

    Variables protected by {!Pathsum.protected_vars} (observed) and
    variables still parametrizing an output are never eliminated.
    Counters: [verify.reduce.{elim,hh,omega,subst}]. *)

type stats = { elim : int; hh : int; omega : int; subst : int }

(** Total rule applications. *)
val total : stats -> int

(** Reduce to a fixpoint.  The result is extensionally equal to the
    input (same amplitudes on every path of the surviving variables,
    same recorded observations). *)
val normalize : Pathsum.t -> Pathsum.t * stats
