(* Structure-of-arrays storage: two flat float arrays instead of one
   Complex.t array.  OCaml float arrays are unboxed, so the simulator
   kernels that grab [re]/[im] run allocation-free tight loops — the
   boxed Complex.t representation cost one allocation per arithmetic
   op on the execution hot path. *)
type t = { re : float array; im : float array }

let make n = { re = Array.make n 0.; im = Array.make n 0. }

let basis n k =
  if k < 0 || k >= n then invalid_arg "Cvec.basis";
  let v = make n in
  v.re.(k) <- 1.;
  v

let of_array a =
  let n = Array.length a in
  let v = make n in
  for k = 0 to n - 1 do
    v.re.(k) <- a.(k).Complex.re;
    v.im.(k) <- a.(k).Complex.im
  done;
  v

let copy v = { re = Array.copy v.re; im = Array.copy v.im }
let dim v = Array.length v.re
let re v = v.re
let im v = v.im
let get v k = { Complex.re = v.re.(k); im = v.im.(k) }

let set v k (z : Complex.t) =
  v.re.(k) <- z.re;
  v.im.(k) <- z.im

let norm2 v =
  let acc = ref 0. in
  for k = 0 to dim v - 1 do
    acc := !acc +. ((v.re.(k) *. v.re.(k)) +. (v.im.(k) *. v.im.(k)))
  done;
  !acc

let scale (a : Complex.t) v =
  for k = 0 to dim v - 1 do
    let r = v.re.(k) and i = v.im.(k) in
    v.re.(k) <- (a.re *. r) -. (a.im *. i);
    v.im.(k) <- (a.re *. i) +. (a.im *. r)
  done

let normalize v =
  let n = sqrt (norm2 v) in
  if n <= 0. then invalid_arg "Cvec.normalize: zero vector";
  scale (Complex_ext.of_float (1. /. n)) v

let dot a b =
  if dim a <> dim b then invalid_arg "Cvec.dot: dimension mismatch";
  let racc = ref 0. and iacc = ref 0. in
  for k = 0 to dim a - 1 do
    (* conj a.(k) * b.(k) *)
    racc := !racc +. ((a.re.(k) *. b.re.(k)) +. (a.im.(k) *. b.im.(k)));
    iacc := !iacc +. ((a.re.(k) *. b.im.(k)) -. (a.im.(k) *. b.re.(k)))
  done;
  { Complex.re = !racc; im = !iacc }

let approx_equal ?(eps = 1e-9) a b =
  dim a = dim b
  &&
  let ok = ref true in
  for k = 0 to dim a - 1 do
    if
      abs_float (a.re.(k) -. b.re.(k)) > eps
      || abs_float (a.im.(k) -. b.im.(k)) > eps
    then ok := false
  done;
  !ok

(* |<a|b>| = |a||b| iff the vectors are parallel; compare against the
   product of norms so zero vectors are handled too. *)
let approx_equal_up_to_phase ?(eps = 1e-9) a b =
  dim a = dim b
  &&
  let na = sqrt (norm2 a) and nb = sqrt (norm2 b) in
  if na <= eps && nb <= eps then true
  else
    abs_float (Complex.norm (dot a b) -. (na *. nb)) <= eps
    && abs_float (na -. nb) <= eps

let pp fmt v =
  Format.fprintf fmt "[@[";
  for k = 0 to dim v - 1 do
    if k > 0 then Format.fprintf fmt ";@ ";
    Complex_ext.pp fmt (get v k)
  done;
  Format.fprintf fmt "@]]"
