(** Circuit complexity metrics with the paper's counting conventions
    (reverse-engineered from Table I; see DESIGN.md):

    - gate count = unitary gates + classically controlled gates +
      active resets; measurements and barriers do not count;
    - depth = layered (ASAP) schedule length; whether measurements and
      resets occupy a layer is configurable, since the paper includes
      them for dynamic circuits and ignores final measurements for
      traditional ones. *)

type stats = {
  unitary : int;  (** plain unitary applications *)
  conditioned : int;  (** classically controlled applications *)
  measure : int;
  reset : int;
  barrier : int;
  two_qubit : int;  (** unitaries with exactly one quantum control *)
  multi_control : int;  (** unitaries with two or more quantum controls *)
}

val stats : Circ.t -> stats

(** Paper convention gate count (see above). *)
val gate_count : Circ.t -> int

(** Number of T/T† gates (plain or conditioned) — the fault-tolerance
    cost driver of Clifford+T circuits. *)
val t_count : Circ.t -> int

(** [depth ?include_measure c] is the layered depth, measurements
    included unless [include_measure] is [false]. A classically
    controlled gate is additionally sequenced after the measurement
    that writes its condition bit. Barriers force a layer boundary on
    their qubits but occupy no layer. *)
val depth : ?include_measure:bool -> Circ.t -> int

(** Depth for a traditional circuit as tabulated in the paper:
    measurements excluded. *)
val traditional_depth : Circ.t -> int

(** Depth for a dynamic circuit as tabulated in the paper: measurement
    and reset included. *)
val dynamic_depth : Circ.t -> int

(** {1 Wall-clock duration}

    Dynamic circuits trade qubits for time: mid-circuit measurement,
    active reset and the classical feed-forward round trip are orders
    of magnitude slower than gates.  [duration] schedules the circuit
    ASAP under a device timing model and reports the critical-path
    length in nanoseconds. *)

type timing = {
  t_1q : float;  (** 1-qubit gate, ns *)
  t_2q : float;  (** 2-qubit gate, ns *)
  t_measure : float;
  t_reset : float;
  t_feedforward : float;
      (** classical latency before a conditioned gate may start *)
}

(** 2022-era IBM-like figures: 35 / 300 / 700 / 840 / 660 ns. *)
val default_timing : timing

(** Critical-path duration in ns under {!default_timing}.  A
    conditioned gate starts no earlier than [t_feedforward] after its
    condition bits are written; barriers synchronize their qubits at
    zero cost. *)
val duration : Circ.t -> float
