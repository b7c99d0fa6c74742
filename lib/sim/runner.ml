type histogram = { w : int; total : int; counts : (int, int) Hashtbl.t }

let tally_n counts outcome n =
  let prev = Option.value ~default:0 (Hashtbl.find_opt counts outcome) in
  Hashtbl.replace counts outcome (prev + n)

(* The one default-seed constant of the execution layer: Parallel and
   Backend both default to it, so every histogram a caller samples
   without picking a seed comes from the same configuration (asserted
   in test/test_program.ml). *)
let default_seed = 0xC0FFEE

let of_counts ~width pairs =
  let counts = Hashtbl.create 16 in
  let total =
    List.fold_left
      (fun acc (outcome, n) ->
        if n < 0 then invalid_arg "Runner.of_counts: negative count";
        if n > 0 then tally_n counts outcome n;
        acc + n)
      0 pairs
  in
  { w = width; total; counts }

let merge a b =
  if a.w <> b.w then invalid_arg "Runner.merge: width mismatch";
  let counts = Hashtbl.copy a.counts in
  Hashtbl.iter (fun outcome n -> tally_n counts outcome n) b.counts;
  { w = a.w; total = a.total + b.total; counts }

let shots h = h.total
let width h = h.w
let count h o = Option.value ~default:0 (Hashtbl.find_opt h.counts o)
let frequency h o = float_of_int (count h o) /. float_of_int h.total

let to_list h =
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) h.counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_dist h =
  Dist.create ~width:h.w
    (List.map
       (fun (o, n) -> (o, float_of_int n /. float_of_int h.total))
       (to_list h))

let pp fmt h =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (o, n) ->
      Format.fprintf fmt "%s : %d@," (Bits.to_string ~width:h.w o) n)
    (to_list h);
  Format.fprintf fmt "@]"
