open Circuit

(** Compiled execution plans: a circuit lowered once into an array of
    specialized ops, replayed with allocation-free float kernels over
    the SoA amplitude storage ({!State}, {!Linalg.Cvec}).

    Lowering specializes each gate to the cheapest kernel its matrix
    admits — bit-trick X, Hadamard butterfly, diagonal/phase rotation,
    generic fused 2x2 — and iterates only the control-satisfying
    subspace for controlled ops (no per-index mask test).  Adjacent
    single-qubit gates on the same target with the same control mask
    fuse into one 2x2 apply; products that reach the identity are
    dropped.  Measure, reset, conditioned gates and barriers are
    fusion barriers, so the op stream's branching structure matches
    the source instruction stream and both consume randomness in the
    same order — the property the randomized differential tests
    against the generic interpreter rely on.

    Telemetry: {!compile} runs under a [program.compile] span and
    bumps the [sim.program.ops] / [sim.program.fused] /
    [sim.program.fallback] counters (ops emitted, gate applications
    eliminated by fusion, ops on the generic-2x2 fallback kernel).
    With a collector installed, {!exec} times ops into the per-class
    [sim.program.op.<class>] latency histograms
    ([x]/[h]/[phase]/[diag]/[u2]/[cond]/[measure]/[reset]), sampling
    one replay in 256 per domain — timing every op of every shot would
    blow the <2% telemetry budget (docs/OBSERVABILITY.md); the
    histogram [count] says how many ops were actually observed.  With
    none installed the replay loop pays one Atomic load total.

    See docs/EXECUTION.md, "Compiled execution plans". *)

type t

(** One compiled op.  Opaque; see {!view} and {!apply}. *)
type op

(** [compile ?fuse c] lowers the circuit ([fuse] defaults to [true];
    [~fuse:false] keeps a 1:1 gate-to-op mapping — what the noisy
    trajectory engine needs to preserve per-gate error injection). *)
val compile : ?fuse:bool -> Circ.t -> t

(** {!compile} for a bare instruction list (e.g. a circuit suffix). *)
val compile_instructions :
  ?fuse:bool -> num_qubits:int -> num_bits:int -> Instruction.t list -> t

val num_qubits : t -> int
val num_bits : t -> int

(** Number of compiled ops. *)
val length : t -> int

val get : t -> int -> op

(** Unitary (incl. conditioned) gate instructions compiled. *)
val source_gates : t -> int

(** Gate applications eliminated by fusion (merges + identity drops). *)
val fused_count : t -> int

(** Ops that fell back to the generic 2x2 kernel. *)
val fallback_count : t -> int

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
val apply : State.t -> op -> unit

(** [exec ~random st t] replays the whole program; [random] is
    consulted by measure/reset ops only, in source order. *)
val exec : random:(unit -> float) -> State.t -> t -> unit

(** A fresh |0...0> state with the program's shape. *)
val fresh_state : t -> State.t

(** [run ~rng t] executes the program from scratch. *)
val run : rng:Random.State.t -> t -> State.t

(** [run_circuit ~rng c] is [run ~rng (compile c)]. *)
val run_circuit : rng:Random.State.t -> Circ.t -> State.t

(** {1 Introspection} — what the exact-branch enumerator and the noisy
    trajectory engine dispatch on. *)

(** The arithmetic content of one compiled op: kernel class, fixed-bit
    layout ([bit] is the target bit, [cmask] the required-1 control
    bits) and the exact matrix floats the dense kernels use.  This is
    what a non-dense {!Engine} implementation replays so its
    arithmetic can mirror the dense kernels expression-for-expression
    (the property the differential suite in test/test_sparse.ml leans
    on).  The [m] array of {!Ku2} is shared with the op — treat it as
    read-only. *)
type kernel =
  | Kx of { bit : int; cmask : int }
  | Kh of { bit : int; cmask : int }
  | Kphase of { bit : int; cmask : int; re1 : float; im1 : float }
  | Kdiag of {
      bit : int;
      cmask : int;
      re0 : float;
      im0 : float;
      re1 : float;
      im1 : float;
    }
  | Ku2 of { bit : int; cmask : int; m : float array }
  | Kmeasure of { qubit : int; bit : int }
  | Kreset of int
  | Kcond of { mask : int; value : int; body : kernel }

val kernel : op -> kernel

(** [kernels t] is every op's {!kernel}, in execution order — what a
    sparse engine lowers once per program (see {!Sparse}). *)
val kernels : t -> kernel array

type view =
  | Unitary of { target : int; controls : int list }
  | Conditional of { mask : int; value : int; target : int; controls : int list }
  | Measurement of { qubit : int; bit : int }
  | Reset of int

val view : n:int -> op -> view
