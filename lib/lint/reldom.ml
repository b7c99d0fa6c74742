open Circuit

(* Invariants:
   - [block.(q)] is the canonical representative (minimum member) of
     [q]'s entangled block.
   - [rank.(r)] is meaningful only at representatives and is 0
     elsewhere; it is stored UNCAPPED (capping happens in [leq] and
     [log2_support_bound]) so that transfer stays monotone.
   - [rows] is always a canonical reduced echelon basis
     ([Gf2.reduced]), empty when [not tracked]. *)
type t = {
  num_qubits : int;
  num_bits : int;
  block : int array;
  rank : int array;
  rows : int list;
  tracked : bool;
}

let tracked t = t.tracked
let width t = t.num_qubits + t.num_bits + 1
let qbit q = 1 lsl q
let cbit t b = 1 lsl (t.num_qubits + b)
let const_bit t = 1 lsl (t.num_qubits + t.num_bits)

let init ~num_qubits ~num_bits =
  let w = num_qubits + num_bits + 1 in
  (* the Zassenhaus join needs rows at width 2w in one int *)
  let tracked = 2 * w <= Sys.int_size - 1 in
  let rows =
    if tracked then
      Gf2.reduced ~width:w
        (List.init num_qubits (fun q -> 1 lsl q)
        @ List.init num_bits (fun b -> 1 lsl (num_qubits + b)))
    else []
  in
  {
    num_qubits;
    num_bits;
    block = Array.init num_qubits (fun q -> q);
    rank = Array.make num_qubits 0;
    rows;
    tracked;
  }

(* ------------------------------------------------------------------ *)
(* Partition and rank                                                  *)

let block_sizes t =
  let sizes = Array.make t.num_qubits 0 in
  Array.iter (fun r -> sizes.(r) <- sizes.(r) + 1) t.block;
  sizes

let merge t qs =
  let reps = List.sort_uniq compare (List.map (fun q -> t.block.(q)) qs) in
  match reps with
  | [] | [ _ ] -> t
  | new_rep :: _ ->
      let total = List.fold_left (fun acc r -> acc + t.rank.(r)) 0 reps in
      let block =
        Array.map (fun r -> if List.mem r reps then new_rep else r) t.block
      in
      let rank = Array.copy t.rank in
      List.iter (fun r -> rank.(r) <- 0) reps;
      rank.(new_rep) <- total;
      { t with block; rank }

let bump t q =
  let rank = Array.copy t.rank in
  let r = t.block.(q) in
  rank.(r) <- rank.(r) + 1;
  { t with rank }

(* Detach [q] into a singleton rank-0 block; the remaining block keeps
   its (uncapped) rank, which stays a sound upper bound. *)
let split t q =
  let old = t.block.(q) in
  let block = Array.copy t.block and rank = Array.copy t.rank in
  (if q = old then begin
     let rest = ref (-1) in
     for i = t.num_qubits - 1 downto 0 do
       if i <> q && block.(i) = old then rest := i
     done;
     if !rest >= 0 then begin
       let r = rank.(old) in
       for i = 0 to t.num_qubits - 1 do
         if block.(i) = old then block.(i) <- !rest
       done;
       rank.(!rest) <- r
     end
   end);
  block.(q) <- q;
  rank.(q) <- 0;
  { t with block; rank }

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)

let implied_mask t mask =
  if not t.tracked then None
  else
    let residue = Gf2.reduce_by ~width:(width t) t.rows mask in
    if residue = 0 then Some false
    else if residue = const_bit t then Some true
    else None

let implied_qubit t q = implied_mask t (qbit q)
let implied_bit t b = implied_mask t (cbit t b)

(* Some combination of the rows has qubit part exactly {q}: then x_q is
   an affine function of the classical bits alone. *)
let branch_constant t q =
  t.tracked
  &&
  let qubits = (1 lsl t.num_qubits) - 1 in
  Gf2.in_span ~width:t.num_qubits
    (Gf2.independent ~width:t.num_qubits
       (List.map (fun r -> r land qubits) t.rows))
    (qbit q)

(* Substitution [x_t <- x_t (+) x] on every row mentioning [tmask].
   When no row mentions the target this is the identity and allocates
   nothing — the common case on fresh or already-eliminated wires.
   Otherwise the untouched rows are still a canonical basis, so the
   (few) rewritten rows are folded back in incrementally instead of
   re-reducing the whole basis. *)
let substitute t tmask x =
  if not t.tracked then t
  else
    let changed, unchanged =
      List.partition (fun r -> r land tmask <> 0) t.rows
    in
    match changed with
    | [] -> t
    | _ :: _ ->
        let w = width t in
        {
          t with
          rows =
            List.fold_left
              (fun acc r -> Gf2.insert ~width:w acc (r lxor x))
              unchanged changed;
        }

let add_rows t vs =
  if not t.tracked then t
  else
    let w = width t in
    let rows = List.fold_left (Gf2.insert ~width:w) t.rows vs in
    if rows == t.rows then t else { t with rows }

(* Existentially quantify variable [bit] out of the rows. *)
let eliminate t bit =
  if not t.tracked then t
  else
    let mask = 1 lsl bit in
    let with_b, without = List.partition (fun r -> r land mask <> 0) t.rows in
    match with_b with
    | [] -> t
    | [ _ ] ->
        (* dropping a row from a canonical basis keeps it canonical *)
        { t with rows = without }
    | r0 :: rest ->
        (* [without] is still canonical; fold the pair-eliminated rows
           back in incrementally *)
        let w = width t in
        {
          t with
          rows =
            List.fold_left
              (fun acc r -> Gf2.insert ~width:w acc (r lxor r0))
              without rest;
        }

(* Fold Zero/One facts from the non-relational lattice into the rows.
   Saturating BEFORE the transfer is what keeps the transfer monotone:
   a provably-zero control then satisfies x_c = 0 in the row span, so
   the generic control substitution coincides with the identity. *)
let saturate hint t qs =
  if not t.tracked then t
  else
    let facts =
      List.filter_map
        (fun q ->
          match hint q with
          | Absdom.Qubit.Zero -> Some (qbit q)
          | Absdom.Qubit.One -> Some (qbit q lor const_bit t)
          | Absdom.Qubit.Basis | Absdom.Qubit.Collapsed
          | Absdom.Qubit.Superposed | Absdom.Qubit.Top ->
              None)
        qs
    in
    match facts with [] -> t | _ :: _ -> add_rows t facts

let qubit_value hint t q =
  match implied_qubit t q with
  | Some v -> Some v
  | None -> (
      match hint q with
      | Absdom.Qubit.Zero -> Some false
      | Absdom.Qubit.One -> Some true
      | Absdom.Qubit.Basis | Absdom.Qubit.Collapsed | Absdom.Qubit.Superposed
      | Absdom.Qubit.Top ->
          None)

(* ------------------------------------------------------------------ *)
(* Join and order                                                      *)

let join a b =
  if a.num_qubits <> b.num_qubits || a.num_bits <> b.num_bits then
    invalid_arg "Reldom.join: dimension mismatch";
  let nq = a.num_qubits in
  (* partition join: transitive closure, min-rooted union-find *)
  let parent = Array.init nq (fun q -> q) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(max ri rj) <- min ri rj
  in
  for q = 0 to nq - 1 do
    union q a.block.(q);
    union q b.block.(q)
  done;
  let block = Array.init nq find in
  (* rank join: per merged block, max over sides of the sum of that
     side's block ranks (a sound upper bound; see the .mli caveat) *)
  let accum side =
    let acc = Array.make nq 0 in
    for q = 0 to nq - 1 do
      if side.block.(q) = q then
        acc.(block.(q)) <- acc.(block.(q)) + side.rank.(q)
    done;
    acc
  in
  let sa = accum a and sb = accum b in
  let rank =
    Array.init nq (fun q -> if block.(q) = q then max sa.(q) sb.(q) else 0)
  in
  (* row join: span intersection by the Zassenhaus trick at width 2w *)
  let rows =
    if not (a.tracked && b.tracked) then []
    else
      let w = width a in
      let stacked =
        List.map (fun r -> (r lsl w) lor r) a.rows
        @ List.map (fun r -> r lsl w) b.rows
      in
      let inter =
        List.filter
          (fun r -> r <> 0 && r lsr w = 0)
          (Gf2.independent ~width:(2 * w) stacked)
      in
      Gf2.reduced ~width:w inter
  in
  { a with block; rank; rows; tracked = a.tracked && b.tracked }

let leq a b =
  if a.num_qubits <> b.num_qubits || a.num_bits <> b.num_bits then
    invalid_arg "Reldom.leq: dimension mismatch";
  let nq = a.num_qubits in
  let part_ok = ref true in
  for q = 0 to nq - 1 do
    if b.block.(q) <> b.block.(a.block.(q)) then part_ok := false
  done;
  !part_ok
  && begin
       let sza = block_sizes a and szb = block_sizes b in
       let acc = Array.make nq 0 in
       for q = 0 to nq - 1 do
         if a.block.(q) = q then begin
           let m = b.block.(q) in
           acc.(m) <- acc.(m) + min a.rank.(q) sza.(q)
         end
       done;
       let ok = ref true in
       for m = 0 to nq - 1 do
         if b.block.(m) = m && acc.(m) > min b.rank.(m) szb.(m) then ok := false
       done;
       !ok
     end
  && ((not b.tracked)
     || List.for_all (fun r -> Gf2.in_span ~width:(width a) a.rows r) b.rows)

let equal a b =
  a.num_qubits = b.num_qubits
  && a.num_bits = b.num_bits
  && a.block = b.block && a.rank = b.rank && a.rows = b.rows

(* ------------------------------------------------------------------ *)
(* Transfer                                                            *)

let apply_app hint t ({ gate; controls; target } : Instruction.app) =
  let t = saturate hint t (target :: controls) in
  if List.exists (fun c -> qubit_value hint t c = Some false) controls then t
  else
    let unknown =
      List.filter (fun c -> qubit_value hint t c <> Some true) controls
    in
    let tmask = qbit target in
    match Absdom.classify gate with
    | Absdom.Diagonal -> (
        (* support is unchanged, but an unknown control entangles *)
        match unknown with [] -> t | _ :: _ -> merge t (target :: unknown))
    | Absdom.Permuting -> (
        match unknown with
        | [] ->
            (* unconditional basis flip: x_t <- x_t (+) 1 *)
            substitute t tmask (const_bit t)
        | [ c ] ->
            (* CX substitution: x_t <- x_t (+) x_c *)
            merge (substitute t tmask (qbit c)) [ target; c ]
        | _ :: _ :: _ ->
            (* Toffoli-like: the target update is nonlinear *)
            merge (eliminate t target) (target :: unknown))
    | Absdom.Superposing -> (
        let t = eliminate t target in
        match unknown with
        | [] -> bump t target
        | _ :: _ -> bump (merge t (target :: unknown)) target)

let cond_status t (cond : Instruction.cond) =
  let rec go all_known = function
    | [] -> if all_known then `Holds else `Unknown
    | (b, v) :: rest -> (
        match implied_bit t b with
        | Some v' when v' <> v -> `Fails
        | Some _ -> go all_known rest
        | None -> go false rest)
  in
  go true cond.bits

let step ?(hint = fun _ -> Absdom.Qubit.Top) t (instr : Instruction.t) =
  match instr with
  | Unitary app -> apply_app hint t app
  | Conditioned (cond, app) -> (
      let t = saturate hint t (app.target :: app.controls) in
      match cond_status t cond with
      | `Fails -> t
      | `Holds -> apply_app hint t app
      | `Unknown -> (
          if
            List.exists
              (fun c -> qubit_value hint t c = Some false)
              app.controls
          then t
          else
            let unknown =
              List.filter
                (fun c -> qubit_value hint t c <> Some true)
                app.controls
            in
            match (Absdom.classify app.gate, unknown, cond.bits) with
            | Absdom.Diagonal, [], _ -> t
            | Absdom.Diagonal, _ :: _, _ -> merge t (app.target :: unknown)
            | Absdom.Permuting, [], [ (b, v) ] ->
                (* feed-forward flip stays affine:
                   x_t <- x_t (+) x_b (+) v (+) 1 *)
                let x = cbit t b lor (if v then 0 else const_bit t) in
                substitute t (qbit app.target) x
            | Absdom.Superposing, _, _ ->
                (* a superposing transfer only erases rows, coarsens
                   the partition and bumps rank, so its result already
                   bounds the not-fired branch [t]: the generic join
                   would return it unchanged *)
                apply_app hint t app
            | Absdom.Permuting, _, _ -> join (apply_app hint t app) t))
  | Measure { qubit = q; bit = b } ->
      let t = saturate hint t [ q ] in
      (* the written bit is clobbered; the measured qubit keeps its
         affine relations (projection only shrinks the support) and
         collapses to a deterministic singleton *)
      let t = eliminate t (t.num_qubits + b) in
      let t = add_rows t [ qbit q lor cbit t b ] in
      split t q
  | Reset q ->
      let t = eliminate t q in
      let t = add_rows t [ qbit q ] in
      split t q
  | Barrier _ -> t

(* ------------------------------------------------------------------ *)
(* Support bound                                                       *)

(* the qubits some row pins alone: its live support is that one qubit *)
let rec single_pins live acc = function
  | [] -> acc
  | r :: rows ->
      let e = r land live in
      single_pins live (if e land (e - 1) = 0 then acc lor e else acc) rows

(* the rows' nonzero live parts *)
let rec live_parts live acc = function
  | [] -> acc
  | r :: rows ->
      let e = r land live in
      live_parts live (if e <> 0 then e :: acc else acc) rows

let log2_support_bound t =
  let nq = t.num_qubits in
  (* qubits of rank-0 blocks are in a definite basis state on every
     branch, so like classical bits they act as per-branch constants in
     the rows *)
  let live = ref 0 and singletons = ref true in
  let live_rep = ref (-1) and one_block = ref true in
  for q = 0 to nq - 1 do
    let r = t.block.(q) in
    if r <> q then singletons := false;
    if t.rank.(r) > 0 then begin
      live := !live lor (1 lsl q);
      if !live_rep < 0 then live_rep := r
      else if r <> !live_rep then one_block := false
    end
  done;
  let live = !live in
  if live = 0 then 0
  else if !singletons then
    (* every block is one qubit: each live qubit no row pins adds one *)
    Gf2.popcount (live land lnot (single_pins live 0 t.rows))
  else if !one_block then begin
    (* one block holds every live qubit, so every row with a live part
       pins it *)
    let s = Gf2.popcount live in
    let pinned =
      match live_parts live [] t.rows with
      | [] -> 0
      | [ _ ] -> 1
      | parts -> Gf2.rank ~width:nq parts
    in
    min (min t.rank.(!live_rep) s) (s - pinned)
  end
  else begin
    (* members.(r): the qubits of the block represented by [r] *)
    let members = Array.make nq 0 in
    for q = 0 to nq - 1 do
      let r = t.block.(q) in
      members.(r) <- members.(r) lor (1 lsl q)
    done;
    (* a row whose live qubit support is nonempty and falls inside one
       block pins a dimension of that block *)
    let pins =
      List.filter_map
        (fun r ->
          let e = r land live in
          if e <> 0 && e land lnot members.(t.block.(Gf2.top_bit e)) = 0 then
            Some e
          else None)
        t.rows
    in
    (* pins of different blocks have disjoint supports, so an echelon
       basis of all of them has exactly as many pivots (top bits)
       inside each block as that block's pins have rank *)
    let pivots =
      List.fold_left
        (fun acc v -> acc lor (1 lsl Gf2.top_bit v))
        0
        (Gf2.independent ~width:nq pins)
    in
    let total = ref 0 in
    for m = 0 to nq - 1 do
      if t.block.(m) = m && t.rank.(m) > 0 then begin
        let s = Gf2.popcount members.(m) in
        let d = s - Gf2.popcount (members.(m) land pivots) in
        total := !total + min (min t.rank.(m) s) d
      end
    done;
    min !total nq
  end

let blocks t =
  let out = ref [] in
  for m = t.num_qubits - 1 downto 0 do
    if t.block.(m) = m then begin
      let members = ref [] in
      for q = t.num_qubits - 1 downto 0 do
        if t.block.(q) = m then members := q :: !members
      done;
      out := (!members, min t.rank.(m) (List.length !members)) :: !out
    end
  done;
  !out
