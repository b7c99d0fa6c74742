(* Path-sum / phase-polynomial representation of a circuit segment:

     |psi> = 2^{-scale/2} . sum over x in {0,1}^V of
               omega^{phase(x)} |outputs_0(x), ..., outputs_{n-1}(x)>

   where V is a set of symbolic boolean path variables, [phase] is a
   multilinear polynomial mod 8 and each output is a multilinear
   polynomial over GF(2).  Mid-circuit measurements do not case-split:
   recording bit := f_q(x) pins every path to the branch its own
   assignment selects, because paths with different recorded values
   can never interfere afterwards.  Reductions must therefore treat
   variables occurring in a recorded expression as observed. *)

(* ------------------------------------------------------------------ *)
(* Multilinear polynomials over GF(2)                                 *)

module Bexpr = struct
  (* a polynomial is a sorted list of monomials (XOR of products);
     a monomial is a sorted list of distinct variable ids; the empty
     monomial is the constant 1 *)
  type t = int list list

  (* lexicographic, a proper prefix first: the order of polymorphic
     compare on int lists, without its generic dispatch *)
  let rec compare_mono (x : int list) (y : int list) =
    match (x, y) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | a :: x', b :: y' -> if a <> b then Int.compare a b else compare_mono x' y'

  let rec merge_xor a b =
    match (a, b) with
    | [], r | r, [] -> r
    | m :: a', n :: b' ->
        let c = compare_mono m n in
        if c = 0 then merge_xor a' b'
        else if c < 0 then m :: merge_xor a' b
        else n :: merge_xor a b'

  let zero : t = []
  let one : t = [ [] ]
  let var v : t = [ [ v ] ]
  let xor = merge_xor

  let rec union_vars (a : int list) (b : int list) =
    match (a, b) with
    | [], r | r, [] -> r
    | x :: a', y :: b' ->
        if x = y then x :: union_vars a' b'
        else if x < y then x :: union_vars a' b
        else y :: union_vars a b'

  (* product (logical AND): all pairwise monomial unions, cancelling
     mod 2 *)
  let conj (a : t) (b : t) : t =
    List.fold_left
      (fun acc m ->
        List.fold_left (fun acc n -> xor acc [ union_vars m n ]) acc b)
      zero a

  let not_ a = xor one a
  let monomials (t : t) = t
  let equal (a : t) (b : t) = List.equal (List.equal Int.equal) a b
  let compare : t -> t -> int = List.compare compare_mono
  let is_zero (t : t) = t = []

  let is_const = function
    | [] -> Some false
    | [ [] ] -> Some true
    | _ :: _ -> None

  let vars (t : t) = List.sort_uniq Int.compare (List.concat t)

  (* t = v.A xor C; subst gives e.A xor C, and t itself when v does not
     occur *)
  let subst v e (t : t) =
    if not (List.exists (List.mem v) t) then t
    else
      let with_v, without = List.partition (List.mem v) t in
      let a = List.map (List.filter (fun x -> x <> v)) with_v in
      xor without (conj e (List.sort_uniq compare_mono a))

  let rename f (t : t) =
    List.sort_uniq compare_mono
      (List.map (fun m -> List.sort_uniq Int.compare (List.map f m)) t)

  let eval assign (t : t) =
    List.fold_left
      (fun acc m -> acc <> List.for_all assign m)
      false t

  let to_string (t : t) =
    match t with
    | [] -> "0"
    | ms ->
        String.concat " + "
          (List.map
             (function
               | [] -> "1"
               | m -> String.concat "." (List.map (Printf.sprintf "x%d") m))
             ms)

  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

(* ------------------------------------------------------------------ *)
(* Multilinear phase polynomials mod 8                                *)

module Phase = struct
  (* sorted assoc list monomial -> coefficient in 1..7 *)
  type t = (int list * int) list

  let zero : t = []
  let norm_coeff c = ((c mod 8) + 8) mod 8

  let rec add (a : t) (b : t) : t =
    match (a, b) with
    | [], r | r, [] -> r
    | ((m, cm) as x) :: a', ((n, cn) as y) :: b' ->
        let c = Bexpr.compare_mono m n in
        if c = 0 then
          let s = norm_coeff (cm + cn) in
          if s = 0 then add a' b' else (m, s) :: add a' b'
        else if c < 0 then x :: add a' b
        else y :: add a b'

  let of_term c m : t =
    let c = norm_coeff c in
    if c = 0 then [] else [ (List.sort_uniq Int.compare m, c) ]

  (* terms in any order, repeats summed *)
  let of_terms terms : t =
    let rec merge = function
      | (m, c) :: (n, d) :: rest when Bexpr.compare_mono m n = 0 ->
          merge ((m, c + d) :: rest)
      | (m, c) :: rest ->
          let c = norm_coeff c in
          if c = 0 then merge rest else (m, c) :: merge rest
      | [] -> []
    in
    merge (List.stable_sort (fun (m, _) (n, _) -> Bexpr.compare_mono m n) terms)

  let scale k (t : t) : t =
    let k = norm_coeff k in
    if k = 0 then []
    else
      List.filter_map
        (fun (m, c) ->
          let c = norm_coeff (c * k) in
          if c = 0 then None else Some (m, c))
        t

  let neg t = scale 7 t

  let mul (a : t) (b : t) : t =
    (* variables are boolean, so monomial products are unions *)
    List.fold_left
      (fun acc (m, cm) ->
        List.fold_left
          (fun acc (n, cn) ->
            add acc (of_term (cm * cn) (Bexpr.union_vars m n)))
          acc b)
      zero a

  (* arithmetic lift of a GF(2) polynomial: L(a xor b) =
     L(a) + L(b) - 2.L(a).L(b); coefficients die at 8, so only
     subset-products of size <= 3 survive and the lift stays
     polynomial *)
  let lift (e : Bexpr.t) : t =
    List.fold_left
      (fun acc m ->
        let lm = of_term 1 m in
        add (add acc lm) (scale 6 (mul acc lm)))
      zero (Bexpr.monomials e)

  (* 4.L(e) = 4.(sum of e's monomials) mod 8 — the cross terms carry
     coefficient 8k and vanish *)
  let lift4 (e : Bexpr.t) : t =
    List.fold_left (fun acc m -> add acc (of_term 4 m)) zero
      (Bexpr.monomials e)

  let is_const = function
    | [] -> Some 0
    | [ ([], c) ] -> Some c
    | _ :: _ -> None

  let vars (t : t) = List.sort_uniq Int.compare (List.concat_map fst t)

  let rename f (t : t) =
    of_terms
      (List.map
         (fun (m, c) -> (List.sort_uniq Int.compare (List.map f m), c))
         t)

  let terms (t : t) = t

  let to_string (t : t) =
    match t with
    | [] -> "0"
    | ts ->
        String.concat " + "
          (List.map
             (fun (m, c) ->
               match m with
               | [] -> string_of_int c
               | _ ->
                   Printf.sprintf "%d.%s" c
                     (String.concat "." (List.map (Printf.sprintf "x%d") m)))
             ts)

  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

(* ------------------------------------------------------------------ *)
(* The path sum itself                                                *)

type t = {
  scale : int;
  phase : Phase.t;
  outputs : Bexpr.t array;
  bits : Bexpr.t option array;
  ghosts : Bexpr.t list;
  next_var : int;
  zero_amplitude : bool;
}

(* the variables of the recorded and discarded observations, unsorted
   and repeated *)
let observed t =
  let exprs =
    Array.fold_left
      (fun acc -> function Some e -> e :: acc | None -> acc)
      t.ghosts t.bits
  in
  List.concat_map (fun e -> List.concat (Bexpr.monomials e)) exprs

let all_vars t =
  List.sort_uniq Int.compare
    (observed t
    @ List.concat_map fst (Phase.terms t.phase)
    @ List.concat_map (fun e -> List.concat (Bexpr.monomials e))
        (Array.to_list t.outputs))

(* variables that may never be eliminated: they parametrize an
   observation (a recorded bit, a discarded measurement) *)
let protected_vars t = List.sort_uniq Int.compare (observed t)

let pp fmt t =
  if t.zero_amplitude then Format.fprintf fmt "@[<v>zero amplitude@]"
  else begin
    Format.fprintf fmt "@[<v>scale 2^{-%d/2}, phase %a@," t.scale Phase.pp
      t.phase;
    Array.iteri
      (fun q e -> Format.fprintf fmt "q%d -> %a@," q Bexpr.pp e)
      t.outputs;
    Array.iteri
      (fun b e ->
        match e with
        | Some e -> Format.fprintf fmt "c%d = %a@," b Bexpr.pp e
        | None -> ())
      t.bits;
    List.iter (fun e -> Format.fprintf fmt "ghost %a@," Bexpr.pp e) t.ghosts;
    Format.fprintf fmt "@]"
  end

let to_string t = Format.asprintf "%a" pp t
