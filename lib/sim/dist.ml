type t = { w : int; probs : (int, float) Hashtbl.t }

let add_mass tbl outcome p =
  let prev = Option.value ~default:0. (Hashtbl.find_opt tbl outcome) in
  Hashtbl.replace tbl outcome (prev +. p)

let create ~width pairs =
  let probs = Hashtbl.create 16 in
  List.iter (fun (o, p) -> if p > 0. then add_mass probs o p) pairs;
  { w = width; probs }

let width d = d.w
let prob d o = Option.value ~default:0. (Hashtbl.find_opt d.probs o)

let to_list d =
  Hashtbl.fold (fun o p acc -> (o, p) :: acc) d.probs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let support d =
  List.filter_map (fun (o, p) -> if p > 1e-12 then Some o else None)
    (to_list d)

let total d = Hashtbl.fold (fun _ p acc -> acc +. p) d.probs 0.

let normalize d =
  let t = total d in
  if t <= 0. then invalid_arg "Dist.normalize: zero mass";
  create ~width:d.w (List.map (fun (o, p) -> (o, p /. t)) (to_list d))

let outcomes_union a b =
  let seen = Hashtbl.create 16 in
  let add (o, _) = Hashtbl.replace seen o () in
  List.iter add (to_list a);
  List.iter add (to_list b);
  Hashtbl.fold (fun o () acc -> o :: acc) seen []

let tv_distance a b =
  let acc =
    List.fold_left
      (fun acc o -> acc +. abs_float (prob a o -. prob b o))
      0. (outcomes_union a b)
  in
  acc /. 2.

let approx_equal ?(eps = 1e-9) a b =
  List.for_all
    (fun o -> abs_float (prob a o -. prob b o) <= eps)
    (outcomes_union a b)

let map_outcome ~width' f d =
  create ~width:width' (List.map (fun (o, p) -> (f o, p)) (to_list d))

let marginal ~bits d =
  let project o =
    List.fold_left
      (fun (acc, k) src -> (Bits.set acc k (Bits.get o src), k + 1))
      (0, 0) bits
    |> fst
  in
  map_outcome ~width':(List.length bits) project d

let mode d =
  match to_list d with
  | [] -> invalid_arg "Dist.mode: empty distribution"
  | first :: rest ->
      List.fold_left
        (fun (bo, bp) (o, p) -> if p > bp then (o, p) else (bo, bp))
        first rest

let pp fmt d =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (o, p) ->
      Format.fprintf fmt "%s : %.6f@," (Bits.to_string ~width:d.w o) p)
    (to_list d);
  Format.fprintf fmt "@]"

type sampler = {
  outcomes : int array;
  (* alias table: with prob cut.(k) pick outcomes.(k), else alias.(k) *)
  cut : float array;
  alias : int array;
}

(* One sorted pass over the table.  Each entry is scaled by the total
   [normalize] divides by, in its fold order, so the table is the one
   [to_list (normalize d)] would give, bit for bit. *)
let sampler d =
  let t = total d in
  let entries =
    List.filter_map
      (fun (o, p) ->
        let p = p /. t in
        if p > 0. then Some (o, p) else None)
      (to_list d)
  in
  if entries = [] then invalid_arg "Dist.sampler: empty distribution";
  let n = List.length entries in
  let outcomes = Array.of_list (List.map fst entries) in
  let scaled =
    Array.of_list (List.map (fun (_, p) -> p *. float_of_int n) entries)
  in
  let cut = Array.make n 1. in
  let alias = Array.init n (fun k -> k) in
  let small = Queue.create () and large = Queue.create () in
  Array.iteri
    (fun k w -> Queue.add k (if w < 1. then small else large))
    scaled;
  while not (Queue.is_empty small || Queue.is_empty large) do
    let s = Queue.pop small and l = Queue.pop large in
    cut.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) -. (1. -. scaled.(s));
    Queue.add l (if scaled.(l) < 1. then small else large)
  done;
  (* leftovers are numerically ~1 *)
  Queue.iter (fun k -> cut.(k) <- 1.) small;
  Queue.iter (fun k -> cut.(k) <- 1.) large;
  { outcomes; cut; alias }

(* Each draw picks a slot (two RNG reads) and counts it; the outcomes
   are read off the nonzero slots once, after the loop. *)
let draw sm rng ~shots =
  let n = Array.length sm.outcomes in
  let counts = Array.make n 0 in
  for _ = 1 to shots do
    let k = Random.State.int rng n in
    let slot =
      if Random.State.float rng 1.0 < sm.cut.(k) then k else sm.alias.(k)
    in
    counts.(slot) <- counts.(slot) + 1
  done;
  let acc = ref [] in
  for k = n - 1 downto 0 do
    if counts.(k) > 0 then acc := (sm.outcomes.(k), counts.(k)) :: !acc
  done;
  !acc
