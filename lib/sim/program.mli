open Circuit

(** Compiled execution plans: a circuit lowered once into an array of
    specialized ops ({!kernel}s), replayed with float kernels over the
    SoA amplitude storage ({!State}, {!Linalg.Cvec}).  With no [Obs]
    collector installed, replaying unitary and conditioned ops
    allocates nothing (test/test_program.ml pins it on X, CX, CCX, H,
    phase and conditioned X); measure and reset ops allocate a few
    words each.

    Lowering is 1:1: one op per unitary, conditioned, measure or reset
    instruction, none per barrier.  Each gate is specialized to the
    cheapest kernel its matrix admits, entries compared exactly —
    bit-trick X, Hadamard butterfly, diagonal/phase rotation, generic
    2x2 — and controlled ops iterate only the control-satisfying
    subspace (no per-index mask test).  Every kernel does the generic
    interpreter's float arithmetic on the same matrix entries, and the
    op stream consumes randomness in source order, so a compiled run
    reproduces {!Statevector.run_reference} bit for bit — the property
    the randomized differential tests rely on — and per-gate hooks
    (the noise channels of {!Noise}, the cost model's per-op prices)
    see one op per source gate.

    Telemetry: {!compile} runs under a [program.compile] span and
    bumps the [sim.program.ops] / [sim.program.fallback] counters (ops
    emitted, ops on the generic-2x2 fallback kernel).
    With a collector installed, {!exec} times ops into the per-class
    [sim.program.op.<class>] latency histograms
    ([x]/[h]/[phase]/[diag]/[u2]/[cond]/[measure]/[reset]), sampling
    one replay in 256 per domain — timing every op of every shot would
    blow the <2% telemetry budget (docs/OBSERVABILITY.md); the
    histogram [count] says how many ops were actually observed.  With
    none installed the replay loop pays one Atomic load total.

    See docs/EXECUTION.md, "Compiled execution plans". *)

type t

(** One compiled op: kernel class, fixed-bit layout ([target] is the
    target qubit, [bit] the target bit, [cmask] the required-1 control
    bits, [pos] the positions of every fixed bit — controls and target
    — ascending) and the exact matrix floats the kernels use.  [target]
    and [pos] are exact at any width; [bit] and [cmask] are the
    statevector kernels' masks, meaningful below {!Sys.int_size}
    qubits (past both statevector caps).  The dense kernels run it
    directly; {!Sparse} replays it with kernels that mirror the dense
    ones expression-for-expression (the property the differential
    suite in test/test_sparse.ml leans on), {!Stabilizer} maps the
    Clifford ones onto its tableau, and {!Exact} and {!Noise} dispatch
    on it.  The [pos] and [m] arrays are shared with the program —
    treat them as read-only. *)
type kernel =
  | Kx of { target : int; bit : int; cmask : int; pos : int array }
  | Kh of { target : int; bit : int; cmask : int; pos : int array }
  | Kphase of {
      target : int;
      bit : int;
      cmask : int;
      pos : int array;
      re1 : float;
      im1 : float;
    }
      (** diag(1, re1 + i.im1) *)
  | Kdiag of {
      target : int;
      bit : int;
      cmask : int;
      pos : int array;
      re0 : float;
      im0 : float;
      re1 : float;
      im1 : float;
    }
  | Ku2 of {
      target : int;
      bit : int;
      cmask : int;
      pos : int array;
      m : float array;
    }
      (** generic 2x2, [[| m00re; m00im; m01re; m01im; m10re; ... |]] *)
  | Kmeasure of { qubit : int; bit : int }
  | Kreset of int
  | Kcond of { mask : int; value : int; body : kernel }
      (** [body] runs when [register land mask = value] *)

(** [compile c] lowers the circuit, one op per non-barrier
    instruction in source order. *)
val compile : Circ.t -> t

(** {!compile} for a bare instruction list (e.g. a circuit suffix). *)
val compile_instructions :
  num_qubits:int -> num_bits:int -> Instruction.t list -> t

val num_qubits : t -> int
val num_bits : t -> int

(** Number of compiled ops. *)
val length : t -> int

val get : t -> int -> kernel

(** [kernels t] is the program's op array itself, in execution order —
    not a copy, so treat it as read-only. *)
val kernels : t -> kernel array

(** Split at the first measure/reset op: [(prefix, suffix)].  The
    prefix is deterministic (no randomness), which is what
    {!Backend.run}'s plan executor and {!Noise.run_shots} execute once
    and share across shots. *)
val split_prefix : t -> t * t

(** Raised by {!no_random}. *)
exception Unexpected_random_draw

(** The [~random] source for replays that must not branch: a
    {!split_prefix} prefix, a unitary-only program, a single unitary
    op.  Randomness is drawn only by measure/reset ops, so the ops
    before the first measure/reset draw none; a call here means a
    branching op reached such a replay.
    @raise Unexpected_random_draw always. *)
val no_random : unit -> float

(** [apply st op] applies a unitary or conditioned op in place (a
    conditioned op tests the classical register itself).
    @raise Invalid_argument on a measure/reset op. *)
val apply : State.t -> kernel -> unit

(** [exec ~random st t] replays the whole program; [random] is
    consulted by measure/reset ops only, in source order. *)
val exec : random:(unit -> float) -> State.t -> t -> unit

(** A fresh |0...0> state with the program's shape. *)
val fresh_state : t -> State.t

(** [run ~rng t] executes the program from scratch. *)
val run : rng:Random.State.t -> t -> State.t

(** [run_circuit ~rng c] is [run ~rng (compile c)]. *)
val run_circuit : rng:Random.State.t -> Circ.t -> State.t
