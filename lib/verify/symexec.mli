open Circuit

(** Symbolic execution of a full dynamic instruction stream into a
    {!Pathsum.t}.

    - unitary gates apply exact phase-polynomial transfer rules
      (Clifford+T, V/V† via V = H·S·H, and the π/2, π/4 multiples of
      the parametric gates);
    - quantum controls and classical conditions both become GF(2)
      guard factors on the gate's transfer (a test [c_b == 0]
      contributes the factor [e_b ⊕ 1]); a bit no measurement wrote
      reads the constant 0 every engine starts the register at;
    - [Measure] records the qubit's current function as the bit's
      expression — this pins the measurement branches without
      case-splitting (see {!Pathsum});
    - [Reset] is measure-and-discard: the discarded expression joins
      the ghost observations unless it is constant or duplicates an
      existing observation, and the qubit's function becomes 0.

    Telemetry: one [verify.symexec] span, a
    [verify.symexec.instructions] counter.  No simulation backend is
    touched. *)

(** Raised on instructions outside the exact fragment (controlled H,
    arbitrary-angle rotations).  The certifier converts this into
    [Unknown]. *)
exception Unsupported of string

(** [run ?measures c] executes every instruction of [c] from
    |0…0⟩, then appends terminal measurements [(qubit, bit)] from
    [measures] (the bit space grows to accommodate them).
    @raise Unsupported outside the exact fragment. *)
val run : ?measures:(int * int) list -> Circ.t -> Pathsum.t
