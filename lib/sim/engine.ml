(* The engine abstraction: the signatures every execution engine
   implements, so the outcome-tree walk (Walk) and everything built on
   it can be written once instead of hard-coding one storage.

   Instances:
   - [Statevector.Dense_engine] — the dense SoA amplitudes ([State]),
     executing through the compiled kernels ([Program]);
   - [Sparse.Sparse_engine] — the hash-map basis-amplitude statevector, for
     workloads whose reachable state stays near the computational
     basis (the dyn2 dynamic circuits of the paper);
   - [Stabilizer.Tableau_engine] — the CHP tableau, for Clifford programs; it
     implements [Core] only, having no amplitudes to hand over.

   The signatures live in their own module (no implementation here) so
   the instances can be defined next to their state types without a
   dependency cycle: Engine depends only on Program/State, while the
   instances depend on Engine. *)

module type Core = sig
  type state

  val name : string
  val create : int -> num_bits:int -> state
  val copy : state -> state
  val register : state -> int
  val set_bit : state -> int -> bool -> unit
  val prob_one : state -> int -> float
  val apply : state -> Program.kernel -> unit
  val project : state -> int -> bool -> float
  val flip : state -> int -> unit
  val exec : random:(unit -> float) -> state -> Program.t -> unit
  val run : rng:Random.State.t -> Program.t -> state
  val outcome_probabilities : state -> int array -> (int * float) list
end

module type S = sig
  include Core

  val of_state : State.t -> state
  val to_state : state -> State.t
end
