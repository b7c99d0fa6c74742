type app = { gate : Gate.t; controls : int list; target : int }
type cond = { bits : (int * bool) list }

type t =
  | Unitary of app
  | Conditioned of cond * app
  | Measure of { qubit : int; bit : int }
  | Reset of int
  | Barrier of int list

let app ?(controls = []) gate target = { gate; controls; target }
let cond_bit bit value = { bits = [ (bit, value) ] }

(* Normalized condition entries: sorted by bit, exact duplicates
   collapsed.  Contradictory pairs (b,true)/(b,false) survive
   normalization — [cond_tests] rejects them, and [Lint] flags any that
   reach a circuit through the raw record type. *)
let normalize_tests bits = List.sort_uniq compare bits

let cond_all bits =
  { bits = normalize_tests (List.map (fun b -> (b, true)) bits) }

let cond_tests bits =
  let bits = normalize_tests bits in
  List.iter
    (fun (b, v) ->
      if v && List.mem (b, false) bits then
        invalid_arg
          (Printf.sprintf
             "Instruction.cond_tests: contradictory tests on bit c%d" b))
    bits;
  { bits }

let cond_holds c register =
  List.for_all
    (fun (bit, value) -> (register lsr bit) land 1 = 1 = value)
    c.bits
let app_qubits a = a.controls @ [ a.target ]

let qubits = function
  | Unitary a | Conditioned (_, a) -> app_qubits a
  | Measure { qubit; _ } -> [ qubit ]
  | Reset q -> [ q ]
  | Barrier qs -> qs

let bits = function
  | Unitary _ | Reset _ | Barrier _ -> []
  | Conditioned (c, _) -> List.map fst c.bits
  | Measure { bit; _ } -> [ bit ]

let map_app f a =
  { a with controls = List.map f a.controls; target = f a.target }

let map_qubits f = function
  | Unitary a -> Unitary (map_app f a)
  | Conditioned (c, a) -> Conditioned (c, map_app f a)
  | Measure { qubit; bit } -> Measure { qubit = f qubit; bit }
  | Reset q -> Reset (f q)
  | Barrier qs -> Barrier (List.map f qs)

let adjoint = function
  | Unitary a -> Unitary { a with gate = Gate.adjoint a.gate }
  | Conditioned (c, a) -> Conditioned (c, { a with gate = Gate.adjoint a.gate })
  | Measure _ | Reset _ | Barrier _ ->
      invalid_arg "Instruction.adjoint: non-unitary instruction"

(* every entry of the list in [0, n), none repeated *)
let rec in_range_distinct n = function
  | [] -> true
  | x :: rest ->
      x >= 0 && x < n && (not (List.mem x rest)) && in_range_distinct n rest

let app_ok n (a : app) =
  in_range_distinct n a.controls
  && a.target >= 0 && a.target < n
  && not (List.mem a.target a.controls)

let rec bits_ok n = function
  | [] -> true
  | (b, _) :: rest -> b >= 0 && b < n && bits_ok n rest

(* checked without building the qubit or bit lists: Circ.create runs
   this on every instruction of every circuit *)
let well_formed ~num_qubits ~num_bits = function
  | Unitary a -> app_ok num_qubits a
  | Conditioned (c, a) -> bits_ok num_bits c.bits && app_ok num_qubits a
  | Measure { qubit; bit } ->
      qubit >= 0 && qubit < num_qubits && bit >= 0 && bit < num_bits
  | Reset q -> q >= 0 && q < num_qubits
  | Barrier qs -> in_range_distinct num_qubits qs

let counts_as_gate = function
  | Unitary _ | Conditioned _ | Reset _ -> true
  | Measure _ | Barrier _ -> false

let equal a b =
  match (a, b) with
  | Unitary x, Unitary y ->
      Gate.equal x.gate y.gate && x.controls = y.controls && x.target = y.target
  | Conditioned (c, x), Conditioned (d, y) ->
      c = d && Gate.equal x.gate y.gate && x.controls = y.controls
      && x.target = y.target
  | Measure { qubit = q1; bit = b1 }, Measure { qubit = q2; bit = b2 } ->
      q1 = q2 && b1 = b2
  | Reset x, Reset y -> x = y
  | Barrier x, Barrier y -> x = y
  | (Unitary _ | Conditioned _ | Measure _ | Reset _ | Barrier _), _ -> false

let pp fmt t =
  let pp_app fmt a =
    match a.controls with
    | [] -> Format.fprintf fmt "%s q%d" (Gate.name a.gate) a.target
    | cs ->
        Format.fprintf fmt "%s%s %s, q%d"
          (String.concat "" (List.map (fun _ -> "c") cs))
          (Gate.name a.gate)
          (String.concat ", " (List.map (Printf.sprintf "q%d") cs))
          a.target
  in
  match t with
  | Unitary a -> pp_app fmt a
  | Conditioned (c, a) ->
      let test (bit, value) =
        Printf.sprintf "c%d == %d" bit (if value then 1 else 0)
      in
      Format.fprintf fmt "if (%s) %a"
        (String.concat " && " (List.map test c.bits))
        pp_app a
  | Measure { qubit; bit } -> Format.fprintf fmt "measure q%d -> c%d" qubit bit
  | Reset q -> Format.fprintf fmt "reset q%d" q
  | Barrier qs ->
      Format.fprintf fmt "barrier %s"
        (String.concat ", " (List.map (Printf.sprintf "q%d") qs))

let to_string t = Format.asprintf "%a" pp t
