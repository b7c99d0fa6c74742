(* The engine abstraction: the signatures every execution engine
   implements, so Backend's plan executor and the exact-branch
   enumerator (Exact) can be written once instead of hard-coding one
   storage.

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
  val max_qubits : int
  val create : int -> num_bits:int -> state
  val copy : state -> state
  val num_qubits : state -> int
  val num_bits : state -> int
  val register : state -> int
  val set_register : state -> int -> unit
  val set_bit : state -> int -> bool -> unit
  val get_bit : state -> int -> bool
  val prob_one : state -> int -> float
  val apply : state -> Program.kernel -> unit
  val project : state -> int -> bool -> float
  val flip : state -> int -> unit
  val measure : random:float -> state -> qubit:int -> bit:int -> bool
  val reset : random:float -> state -> int -> unit
  val exec : random:(unit -> float) -> state -> Program.t -> unit
  val run : rng:Random.State.t -> Program.t -> state
  val outcome_probabilities : state -> int array -> (int * float) list
end

module type S = sig
  include Core

  val nonzero : state -> int
  val norm2 : state -> float
  val amplitude : state -> int -> Complex.t
  val probabilities : state -> float array
  val of_state : State.t -> state
  val to_state : state -> State.t
end

type packed = Packed : (module S with type state = 's) * 's -> packed

let pack (type s) (module E : S with type state = s) (st : s) =
  Packed ((module E), st)

let register (Packed ((module E), st)) = E.register st

let exec ~random (Packed ((module E), st)) program =
  E.exec ~random st program

(* every handoff goes through the dense representation: identity on
   the dense side, a scan or a table walk on the other *)
let convert (module F : S) (Packed ((module E), st) as p) =
  if String.equal E.name F.name then p
  else Packed ((module F), F.of_state (E.to_state st))
