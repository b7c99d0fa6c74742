open Circuit

(** Static sparsity / resource analyzer.

    Walks a circuit segment-by-segment — segments are aligned with the
    {!Sim.Program.split_prefix} boundary rule: a new segment starts at
    every measure/reset instruction that follows a non-measure/reset
    instruction — and derives, from the relational abstract
    interpretation ({!Reldom} threaded through {!Trace}), a summary a
    backend can select an engine from without touching the simulator.

    Everything here is {e sound}: the amplitude bound over-approximates
    every reachable branch state, the Clifford witness is
    observationally equivalent to the original circuit (statically-dead
    conditioned gates and phase gates on provably-|0> qubits are
    dropped, provably-decided controls are resolved), and the
    nondeterministic branch count under-counts no branch of an exact
    enumeration. *)

type segment = {
  start : int;  (** first instruction index of the segment *)
  stop : int;  (** one past the last instruction index *)
  clifford : bool;
      (** every witness instruction of the segment is representable in
          the CHP stabilizer gate set *)
  t_count : int;  (** uncontrolled T/T† gates surviving in the witness *)
  non_clifford : int;
      (** witness instructions outside the stabilizer set, T count
          excluded (rotations, V, multi-controlled gates, ...) *)
  log2_bound_end : int;
      (** sound upper bound on log2(nonzero amplitudes) after the
          segment's last instruction *)
  log2_bound_peak : int;  (** the same bound, maximized over the segment *)
  nondet : int;
      (** measure/reset instructions that can branch within one branch
          of an exact enumeration: the analysis cannot pin their
          outcome, and the affine rows do not tie the qubit to the
          classical bits alone ({!Reldom.branch_constant}) — the
          segment's true branch points *)
}

type summary = {
  num_qubits : int;
  num_bits : int;
  instructions : int;
  segments : segment list;  (** ascending by [start]; empty iff no instrs *)
  clifford : bool;  (** all segments Clifford *)
  witness : Circ.t;
      (** the simplified, observationally-equivalent circuit backing
          the [clifford] verdicts — a stabilizer backend may execute it
          in place of the original *)
  t_count : int;  (** sum over segments *)
  non_clifford : int;  (** sum over segments *)
  log2_bound_peak : int;  (** max over segments *)
  log2_bounds : int array;
      (** per instruction index [i], the sound log2 bound on nonzero
          amplitudes before instruction [i]; index [instructions]
          bounds the final state.  A collapse that the analysis cannot
          pin halves the bound's support, so the entry after a measured
          superposed qubit is one lower — the drop a segment's peak
          hides. *)
  nondet_branches : int;  (** sum over segments *)
  forks : int array;
      (** per instruction index [i], the [nondet_branches] before [i]
          that precede the circuit's trailing run of measurements
          (barriers aside), which an exact enumeration reads in one
          pass per branch instead of forking on it.  A collapse of a
          qubit tied to the register forks no branch, each of which
          fixes its register: a measure followed by a reset of the
          same qubit counts once.  The enumeration reaches instruction
          [i] on at most [2^forks.(i)] branches, and
          [forks.(instructions)] is its fork depth *)
}

(** Analyze the circuit a trace interpreted (one [analyze.resources]
    span; one [analyze.segment] counter bump per segment).  To analyze
    a circuit, call [Sim.Backend.resource_summary], which interprets
    it first. *)
val analyze : Trace.t -> summary

(** [to_json ?name c s] is the [dqc.analyze/1] JSON document of [c]
    and its summary [s].  Besides the summary it reports what only the
    report reads, computed from [c] when printed: the dynamic depth
    ({!Circuit.Metrics.dynamic_depth}), the feed-forward depth (the
    most measurement->conditioned-gate hops on any dependency path) and
    each referenced qubit's live range (the instruction indices of its
    first and last reference). *)
val to_json : ?name:string -> Circ.t -> summary -> Obs.Json.t

(** [pp c] prints the summary of [c] with its dynamic and feed-forward
    depths, as {!to_json} computes them. *)
val pp : Circ.t -> Format.formatter -> summary -> unit

val to_string : Circ.t -> summary -> string
