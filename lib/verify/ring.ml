(* Exact amplitudes in Z[i, 1/sqrt2] = Z[omega, 1/sqrt2] with
   omega = e^{i.pi/4}.  A value is (a + b.w + c.w^2 + d.w^3) / sqrt2^s
   with integer coefficients; w^4 = -1 and sqrt2 = w - w^3 close the
   ring under all gate amplitudes of Clifford+T and V/Vdg. *)

type t = { a : int; b : int; c : int; d : int; s : int }

(* (a+bw+cw^2+dw^3).(w - w^3) — multiplication by sqrt2 *)
let mul_root2_raw (a, b, c, d) = (b - d, a + c, b + d, c - a)

let rec normalize ({ a; b; c; d; s } as t) =
  if a = 0 && b = 0 && c = 0 && d = 0 then
    { a = 0; b = 0; c = 0; d = 0; s = 0 }
  else if s > 0 && (a - c) land 1 = 0 && (b - d) land 1 = 0 then
    (* dividing by sqrt2 = multiplying by (w - w^3)/2 *)
    let a', b', c', d' = mul_root2_raw (a, b, c, d) in
    normalize { a = a' / 2; b = b' / 2; c = c' / 2; d = d' / 2; s = s - 1 }
  else t

let make ?(s = 0) a b c d = normalize { a; b; c; d; s }
let zero = make 0 0 0 0
let one = make 1 0 0 0
let i = make 0 0 1 0
let is_zero t = t.a = 0 && t.b = 0 && t.c = 0 && t.d = 0

let of_int n = make n 0 0 0
let neg t = { t with a = -t.a; b = -t.b; c = -t.c; d = -t.d }

(* raise [t]'s denominator exponent to [s] (s >= t.s) *)
let lift_to s t =
  let rec go (a, b, c, d) n =
    if n = 0 then (a, b, c, d) else go (mul_root2_raw (a, b, c, d)) (n - 1)
  in
  let a, b, c, d = go (t.a, t.b, t.c, t.d) (s - t.s) in
  { a; b; c; d; s }

let add x y =
  let s = max x.s y.s in
  let x = lift_to s x and y = lift_to s y in
  normalize { a = x.a + y.a; b = x.b + y.b; c = x.c + y.c; d = x.d + y.d; s }

let sub x y = add x (neg y)

let mul x y =
  (* (sum_j x_j w^j)(sum_k y_k w^k), folding w^4 = -1 *)
  let acc = Array.make 4 0 in
  let xs = [| x.a; x.b; x.c; x.d |] and ys = [| y.a; y.b; y.c; y.d |] in
  for j = 0 to 3 do
    for k = 0 to 3 do
      let p = j + k in
      let sign = if p >= 4 then -1 else 1 in
      acc.(p mod 4) <- acc.(p mod 4) + (sign * xs.(j) * ys.(k))
    done
  done;
  normalize { a = acc.(0); b = acc.(1); c = acc.(2); d = acc.(3); s = x.s + y.s }

(* conj(w) = w^7 = -w^3, conj(w^2) = -w^2, conj(w^3) = -w *)
let conj t = normalize { t with b = -t.d; c = -t.c; d = -t.b }
let norm_sq t = mul t (conj t)

(* value / sqrt2^n (n may be negative) *)
let div_root2 n t =
  if n >= 0 then normalize { t with s = t.s + n }
  else
    let rec go acc k =
      if k = 0 then acc
      else
        go
          (let a, b, c, d = mul_root2_raw (acc.a, acc.b, acc.c, acc.d) in
           { acc with a; b; c; d })
          (k - 1)
    in
    normalize (go t (-n))

let equal x y =
  let x = normalize x and y = normalize y in
  x.a = y.a && x.b = y.b && x.c = y.c && x.d = y.d && x.s = y.s

let root2_inv = 1. /. sqrt 2.

let to_complex t =
  let h = float_of_int (t.b - t.d) *. root2_inv
  and g = float_of_int (t.b + t.d) *. root2_inv in
  let re = float_of_int t.a +. h and im = float_of_int t.c +. g in
  let scale = root2_inv ** float_of_int t.s in
  (re *. scale, im *. scale)

let to_float t = fst (to_complex t)

let to_string t =
  let term coeff sym =
    if coeff = 0 then None
    else
      Some
        (match (coeff, sym) with
        | 1, "" -> "1"
        | -1, "" -> "-1"
        | 1, s -> s
        | -1, s -> "-" ^ s
        | n, "" -> string_of_int n
        | n, s -> string_of_int n ^ s)
  in
  let parts =
    List.filter_map Fun.id
      [ term t.a ""; term t.b "w"; term t.c "w2"; term t.d "w3" ]
  in
  let num =
    match parts with
    | [] -> "0"
    | [ p ] -> p
    | ps -> "(" ^ String.concat "+" ps ^ ")"
  in
  if t.s = 0 then num else Printf.sprintf "%s/sqrt2^%d" num t.s

let pp fmt t = Format.pp_print_string fmt (to_string t)
