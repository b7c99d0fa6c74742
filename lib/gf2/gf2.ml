let popcount v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v land (v - 1)) in
  go 0 v

let dot a b = popcount (a land b) land 1 = 1

(* Highest set bit of [v <> 0] by binary search — the row-reduction
   kernels call this per row per query, so the naive per-bit scan from
   [width - 1] down is the hot spot it replaces. *)
let top_bit v =
  let k, v = if v lsr 32 <> 0 then (32, v lsr 32) else (0, v) in
  let k, v = if v lsr 16 <> 0 then (k + 16, v lsr 16) else (k, v) in
  let k, v = if v lsr 8 <> 0 then (k + 8, v lsr 8) else (k, v) in
  let k, v = if v lsr 4 <> 0 then (k + 4, v lsr 4) else (k, v) in
  let k, v = if v lsr 2 <> 0 then (k + 2, v lsr 2) else (k, v) in
  if v lsr 1 <> 0 then k + 1 else k

(* Gaussian elimination: returns (pivot column, row) list in echelon
   form, highest pivot first *)
let echelon ~width vectors =
  let rows = ref [] in
  (* rows: (pivot, value) sorted by pivot descending *)
  let reduce v =
    List.fold_left
      (fun v (pivot, row) ->
        if (v lsr pivot) land 1 = 1 then v lxor row else v)
      v !rows
  in
  let rec insert pivot v = function
    | ((p, _) as row) :: rest when p > pivot -> row :: insert pivot v rest
    | rows -> (pivot, v) :: rows
  in
  List.iter
    (fun v ->
      let v = reduce (v land ((1 lsl width) - 1)) in
      if v <> 0 then rows := insert (top_bit v) v !rows)
    vectors;
  !rows

let rank ~width vectors = List.length (echelon ~width vectors)
let independent ~width vectors = List.map snd (echelon ~width vectors)

(* Canonical reduced row echelon basis: back-substitute so each pivot
   column appears in exactly one row, then keep the pivot-descending
   order.  The reduced basis of a span is unique, so structural
   equality of [reduced] outputs decides span equality. *)
let reduced ~width vectors =
  let rows = Array.of_list (echelon ~width vectors) in
  let n = Array.length rows in
  (* rows are pivot-descending; clearing pivot p of row i from the
     rows above it never disturbs their own (higher) pivots *)
  for i = 0 to n - 1 do
    let pivot, _ = rows.(i) in
    for j = 0 to i - 1 do
      let pj, vj = rows.(j) in
      if (vj lsr pivot) land 1 = 1 then rows.(j) <- (pj, vj lxor snd rows.(i))
    done
  done;
  Array.to_list (Array.map snd rows)

(* Canonical insertion: fold one vector into an already-reduced basis
   in O(rows) without rebuilding it.  Physically returns [rows] itself
   when [v] is dependent, so callers can cheaply detect no-ops. *)
let insert ~width rows v =
  let v =
    List.fold_left
      (fun v row ->
        if row <> 0 && (v lsr top_bit row) land 1 = 1 then v lxor row else v)
      (v land ((1 lsl width) - 1))
      rows
  in
  if v = 0 then rows
  else begin
    let pivot = top_bit v in
    (* clear the new pivot column from the rows above it and splice the
       new row in pivot-descending position; lower rows cannot contain
       the pivot or [v] would have been further reduced *)
    let rec go = function
      | [] -> [ v ]
      | r :: rest ->
          if top_bit r < pivot then v :: r :: rest
          else (if (r lsr pivot) land 1 = 1 then r lxor v else r) :: go rest
    in
    go rows
  end

let reduce_by ~width rows v =
  let v = v land ((1 lsl width) - 1) in
  List.fold_left
    (fun v row ->
      if row <> 0 && (v lsr top_bit row) land 1 = 1 then v lxor row else v)
    v rows

let in_span ~width rows v = reduce_by ~width rows v = 0

let nullspace ~width vectors =
  let rows = echelon ~width vectors in
  let pivots = List.map fst rows in
  let free = List.filter (fun k -> not (List.mem k pivots)) (List.init width (fun k -> k)) in
  (* for each free column f, build the solution with s_f = 1 and pivot
     coordinates chosen to cancel *)
  List.map
    (fun f ->
      let s = ref (1 lsl f) in
      (* process rows bottom-up (lowest pivot first) so each pivot is
         fixed after all coordinates it depends on *)
      List.iter
        (fun (pivot, row) ->
          if dot row !s then s := !s lxor (1 lsl pivot))
        (List.sort (fun (a, _) (b, _) -> compare a b) rows);
      !s)
    free
