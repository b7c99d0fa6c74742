open Circuit

let disjoint xs ys = not (List.exists (fun x -> List.mem x ys) xs)

let app_qubits (a : Instruction.app) = a.controls @ [ a.target ]

(* The pair renumbered over the sorted union of its supports: two
   pairs with the same canonical form differ only by an order-preserving
   relabelling of qubits, so they commute alike. *)
let canonical (a : Instruction.app) (b : Instruction.app) =
  let union = List.sort_uniq compare (app_qubits a @ app_qubits b) in
  let index q =
    let rec find k = function
      | [] -> assert false
      | x :: rest -> if x = q then k else find (k + 1) rest
    in
    find 0 union
  in
  let remap (x : Instruction.app) =
    { x with controls = List.map index x.controls; target = index x.target }
  in
  (List.length union, remap a, remap b)

(* the commutator on the joint support of a canonical pair; unions stay
   tiny (<= 6 qubits) *)
let matrix_commute (n, a, b) =
  Linalg.Cmat.commutator_norm
    (Sim.Unitary.of_app ~n a)
    (Sim.Unitary.of_app ~n b)
  <= 1e-9

(* structural fast paths, then [matrix] on the pairs they leave *)
let decide matrix (a : Instruction.app) (b : Instruction.app) =
  if disjoint (app_qubits a) (app_qubits b) then true
  else if
    (* both act diagonally on every shared qubit: diagonal gates and
       control wires preserve the computational basis *)
    Gate.is_diagonal a.gate && Gate.is_diagonal b.gate
  then true
  else matrix a b

type memo = (int * Instruction.app * Instruction.app, bool) Hashtbl.t

let memo () : memo = Hashtbl.create 64

let memoized (memo : memo) a b =
  let key = canonical a b in
  match Hashtbl.find_opt memo key with
  | Some r -> r
  | None ->
      let r = matrix_commute key in
      Hashtbl.add memo key r;
      r

let instrs memo (x : Instruction.t) (y : Instruction.t) =
  match (x, y) with
  | Unitary a, Unitary b -> decide (memoized memo) a b
  | Conditioned (_, a), Conditioned (_, b) ->
      (* conditions are read-only, so ordering only matters on the
         register values where both fire: the applications must
         commute *)
      decide (memoized memo) a b
  | Conditioned (_, a), Unitary b | Unitary a, Conditioned (_, b) ->
      (* the plain unitary touches no classical bit *)
      decide (memoized memo) a b
  | (Measure _ | Reset _ | Barrier _), _ | _, (Measure _ | Reset _ | Barrier _)
    ->
      disjoint (Instruction.qubits x) (Instruction.qubits y)
      && disjoint (Instruction.bits x) (Instruction.bits y)
