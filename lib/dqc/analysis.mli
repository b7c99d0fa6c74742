open Circuit

(** Static/dynamic analysis of 2-qubit dynamizability: given any
    traditional circuit, classify how Algorithm 1 fares on it and
    report the structural facts behind the verdict — the library's
    answer to "can I run this on two qubits, and should I trust the
    result?". *)

type verdict =
  | Exact_certified
      (** the sound scheduler succeeds: the DQC is provably equivalent *)
  | Exact_observed
      (** Algorithm 1 reorders unsoundly, but the exact distributions
          still coincide (e.g. dynamic-2 on single-Toffoli oracles) *)
  | Approximate of float
      (** transformable, but deviates: TV distance attached *)
  | Untransformable of string  (** with the scheduler's reason *)

type report = {
  num_qubits : int;
  data_qubits : int;
  answer_qubits : int;
  ancilla_qubits : int;
  interaction_edges : (int * int) list;
  cyclic : bool;
  iterations : int option;  (** when transformable *)
  conditioned : int option;
  violations : int option;
  qubit_savings : int option;  (** original minus dynamic qubit count *)
  min_exact_slots : int option;
      (** smallest multi-slot width with a sound-certified realization
          (computed when the circuit is small enough) *)
  verdict : verdict;
}

(** [analyze ?mct c] runs both scheduling modes and (when the circuit
    is small enough for exact evaluation — at most 12 qubits) compares
    exact distributions.  [mct] is forwarded to {!Transform.transform}.
    Input gates must satisfy {!Transform.transform}'s preconditions;
    run a {!Decompose.Pass} first for Toffoli networks. *)
val analyze : ?mct:bool -> Circ.t -> report

val verdict_to_string : verdict -> string
val pp : Format.formatter -> report -> unit
val to_string : report -> string
