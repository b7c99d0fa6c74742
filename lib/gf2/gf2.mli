(** Linear algebra over GF(2) — the classical post-processing substrate
    Simon's algorithm needs (and a useful tool besides: the ANF
    transform, parity arguments, nullspace searches).

    Vectors are ints (bit [k] = coordinate [k], as in [Sim.Bits]). *)

(** [rank ~width vectors]. *)
val rank : width:int -> int list -> int

(** Row-reduce and drop dependent rows; the result is a basis of the
    span, in echelon order. *)
val independent : width:int -> int list -> int list

(** Canonical reduced row-echelon basis of the span: pivots descending,
    and each pivot column appears in exactly one row.  The reduced basis
    of a span is unique, so structural equality of [reduced] outputs
    decides span equality. *)
val reduced : width:int -> int list -> int list

(** [insert ~width rows v] folds one vector into an already-{e reduced}
    basis, keeping it canonical, in O(|rows|) instead of rebuilding with
    [reduced].  When [v] is already in the span the result is physically
    [rows], so callers can detect no-ops with [(==)]. *)
val insert : width:int -> int list -> int -> int list

(** [reduce_by ~width rows v] reduces [v] by an echelon (or reduced)
    basis, returning the residue — [0] iff [v] is in the span. *)
val reduce_by : width:int -> int list -> int -> int

(** [in_span ~width rows v] = [reduce_by ~width rows v = 0]. *)
val in_span : width:int -> int list -> int -> bool

(** [nullspace ~width vectors] is a basis of {s | v.s = 0 for all v}
    (dot product = parity of AND). *)
val nullspace : width:int -> int list -> int list

(** Parity dot product over GF(2). *)
val dot : int -> int -> bool

(** Number of set bits. *)
val popcount : int -> int

(** Index of the highest set bit of a nonzero vector. *)
val top_bit : int -> int
