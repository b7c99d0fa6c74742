exception Unsupported of string

(* Aaronson-Gottesman tableau: rows 0..n-1 destabilizers, n..2n-1
   stabilizers, row 2n scratch.  x.(i).(q)/z.(i).(q) are the Pauli
   X/Z components of generator i on qubit q; r.(i) the sign bit. *)
type t = {
  n : int;
  x : bool array array;
  z : bool array array;
  r : bool array;
  mutable reg : int;
}

let create n ~num_bits:_ =
  if n < 0 || n > Circuit.Circ.max_qubits then
    invalid_arg
      (Printf.sprintf "Stabilizer.create: %d qubits (max %d)" n
         Circuit.Circ.max_qubits);
  let rows = (2 * n) + 1 in
  let x = Array.make_matrix rows n false in
  let z = Array.make_matrix rows n false in
  let r = Array.make rows false in
  for q = 0 to n - 1 do
    x.(q).(q) <- true;
    (* destabilizer X_q *)
    z.(n + q).(q) <- true
    (* stabilizer Z_q *)
  done;
  { n; x; z; r; reg = 0 }

let copy st =
  {
    st with
    x = Array.map Array.copy st.x;
    z = Array.map Array.copy st.z;
    r = Array.copy st.r;
  }

let register st = st.reg
let set_bit st k b = st.reg <- Bits.set st.reg k b

(* phase exponent contribution of multiplying Pauli (x1,z1) by (x2,z2) *)
let g x1 z1 x2 z2 =
  match (x1, z1) with
  | false, false -> 0
  | true, true -> (if z2 then 1 else 0) - if x2 then 1 else 0
  | true, false -> if z2 then (if x2 then 1 else -1) else 0
  | false, true -> if x2 then (if z2 then -1 else 1) else 0

(* row h <- row h * row i *)
let rowsum st h i =
  let acc = ref 0 in
  for q = 0 to st.n - 1 do
    acc := !acc + g st.x.(i).(q) st.z.(i).(q) st.x.(h).(q) st.z.(h).(q)
  done;
  let total =
    (2 * (if st.r.(h) then 1 else 0)) + (2 * if st.r.(i) then 1 else 0) + !acc
  in
  let m = ((total mod 4) + 4) mod 4 in
  (* m is always 0 or 2 for valid tableaux *)
  st.r.(h) <- m = 2;
  for q = 0 to st.n - 1 do
    st.x.(h).(q) <- st.x.(h).(q) <> st.x.(i).(q);
    st.z.(h).(q) <- st.z.(h).(q) <> st.z.(i).(q)
  done

(* ------------------------------------------------------------------ *)
(* Clifford gates, each one pass over the 2n generator rows           *)

let apply_h st a =
  for i = 0 to (2 * st.n) - 1 do
    if st.x.(i).(a) && st.z.(i).(a) then st.r.(i) <- not st.r.(i);
    let tmp = st.x.(i).(a) in
    st.x.(i).(a) <- st.z.(i).(a);
    st.z.(i).(a) <- tmp
  done

let apply_s st a =
  for i = 0 to (2 * st.n) - 1 do
    if st.x.(i).(a) && st.z.(i).(a) then st.r.(i) <- not st.r.(i);
    st.z.(i).(a) <- st.z.(i).(a) <> st.x.(i).(a)
  done

(* S† = S Z: the sign flips where the row reads X alone *)
let apply_sdg st a =
  for i = 0 to (2 * st.n) - 1 do
    if st.x.(i).(a) && not st.z.(i).(a) then st.r.(i) <- not st.r.(i);
    st.z.(i).(a) <- st.z.(i).(a) <> st.x.(i).(a)
  done

let apply_cx st a b =
  for i = 0 to (2 * st.n) - 1 do
    if st.x.(i).(a) && st.z.(i).(b) && st.x.(i).(b) = st.z.(i).(a) then
      st.r.(i) <- not st.r.(i);
    st.x.(i).(b) <- st.x.(i).(b) <> st.x.(i).(a);
    st.z.(i).(a) <- st.z.(i).(a) <> st.z.(i).(b)
  done

(* CZ = (I ⊗ H) CX (I ⊗ H), in one pass *)
let apply_cz st a b =
  for i = 0 to (2 * st.n) - 1 do
    let xa = st.x.(i).(a) and xb = st.x.(i).(b) in
    if xa && xb && st.z.(i).(a) <> st.z.(i).(b) then st.r.(i) <- not st.r.(i);
    st.z.(i).(a) <- st.z.(i).(a) <> xb;
    st.z.(i).(b) <- st.z.(i).(b) <> xa
  done

let apply_x st a =
  for i = 0 to (2 * st.n) - 1 do
    if st.z.(i).(a) then st.r.(i) <- not st.r.(i)
  done

let apply_z st a =
  for i = 0 to (2 * st.n) - 1 do
    if st.x.(i).(a) then st.r.(i) <- not st.r.(i)
  done

let apply_y st a =
  for i = 0 to (2 * st.n) - 1 do
    if st.x.(i).(a) <> st.z.(i).(a) then st.r.(i) <- not st.r.(i)
  done

(* ------------------------------------------------------------------ *)
(* Kernel mapping                                                     *)

(* Y's entries as the lowering emits them (Program.kernel's Ku2) *)
let y_entries = [| 0.; 0.; 0.; -1.; 0.; 1.; 0.; 0. |]

(* The Clifford gate a unitary kernel is, its entries compared exactly
   as the lowering compared them: X/CX, Z/CZ, S, S†, H and Y, with at
   most the one control CX and CZ take.  [pos] holds the control and
   target positions, so its length is one more than the controls. *)
let gate_of (k : Program.kernel) =
  match k with
  | Kx { pos; _ } -> (
      match Array.length pos with 1 -> `X | 2 -> `CX | _ -> `No)
  | Kphase { pos; re1; im1; _ } -> (
      match (Array.length pos, re1, im1) with
      | 1, -1., 0. -> `Z
      | 2, -1., 0. -> `CZ
      | 1, 0., 1. -> `S
      | 1, 0., -1. -> `Sdg
      | _ -> `No)
  | Kh { pos; _ } -> if Array.length pos = 1 then `H else `No
  | Ku2 { pos; m; _ } ->
      if Array.length pos = 1 && Array.for_all2 Float.equal m y_entries then
        `Y
      else `No
  | Kdiag _ | Kmeasure _ | Kreset _ | Kcond _ -> `No

let maps (k : Program.kernel) =
  match k with
  | Kmeasure _ | Kreset _ -> true
  | Kcond { body; _ } -> gate_of body <> `No
  | Kx _ | Kh _ | Kphase _ | Kdiag _ | Ku2 _ -> gate_of k <> `No

let supports program = Array.for_all maps (Program.kernels program)

let unsupported () =
  raise
    (Unsupported
       "Stabilizer: a kernel outside the tableau's gate set (X, CX, Z, CZ, \
        S, Sdg, H, Y)")

let rec apply st (k : Program.kernel) =
  match k with
  | Kcond { mask; value; body } ->
      if st.reg land mask = value then apply st body
      else if not (maps k) then unsupported ()
  | Kmeasure _ | Kreset _ -> invalid_arg "Stabilizer.apply: branching op"
  | Kx { target = t; pos; _ }
  | Kh { target = t; pos; _ }
  | Kphase { target = t; pos; _ }
  | Kdiag { target = t; pos; _ }
  | Ku2 { target = t; pos; _ } -> (
      (* the other end of a two-position op is its control *)
      let c = if pos.(0) = t then pos.(Array.length pos - 1) else pos.(0) in
      match gate_of k with
      | `X -> apply_x st t
      | `CX -> apply_cx st c t
      | `Z -> apply_z st t
      | `CZ -> apply_cz st c t
      | `S -> apply_s st t
      | `Sdg -> apply_sdg st t
      | `H -> apply_h st t
      | `Y -> apply_y st t
      | `No -> unsupported ())

(* ------------------------------------------------------------------ *)
(* Collapse                                                           *)

(* The first stabilizer anticommuting with Z_a, if any: the outcome on
   [a] is random exactly when one exists. *)
let anticommuting st a =
  let i = ref st.n in
  while !i < 2 * st.n && not st.x.(!i).(a) do
    incr i
  done;
  if !i < 2 * st.n then !i else -1

(* The outcome on [a] when it is determined, read into the scratch row
   (workspace, not state). *)
let determined st a =
  let s = 2 * st.n in
  Array.fill st.x.(s) 0 st.n false;
  Array.fill st.z.(s) 0 st.n false;
  st.r.(s) <- false;
  for q = 0 to st.n - 1 do
    if st.x.(q).(a) then rowsum st s (q + st.n)
  done;
  st.r.(s)

(* Collapse the random outcome on [a], [p] its anticommuting stabilizer,
   onto [outcome]. *)
let collapse st a p outcome =
  for i = 0 to (2 * st.n) - 1 do
    if i <> p && st.x.(i).(a) then rowsum st i p
  done;
  (* destabilizer p-n <- old stabilizer p *)
  Array.blit st.x.(p) 0 st.x.(p - st.n) 0 st.n;
  Array.blit st.z.(p) 0 st.z.(p - st.n) 0 st.n;
  st.r.(p - st.n) <- st.r.(p);
  Array.fill st.x.(p) 0 st.n false;
  Array.fill st.z.(p) 0 st.n false;
  st.z.(p).(a) <- true;
  st.r.(p) <- outcome

let prob_one st a =
  if anticommuting st a >= 0 then 0.5 else if determined st a then 1. else 0.

let project st a outcome =
  let p = anticommuting st a in
  if p >= 0 then begin
    collapse st a p outcome;
    0.5
  end
  else if determined st a = outcome then 1.
  else raise (State.Zero_probability_branch { qubit = a; outcome })

(* One draw per collapse, outcome [random < prob_one]: the dense and
   sparse engines' contract, so a Clifford program replays their shot
   stream. *)
let sample ~random st a =
  let p = anticommuting st a in
  if p >= 0 then begin
    let outcome = random < 0.5 in
    collapse st a p outcome;
    outcome
  end
  else determined st a

let flip = apply_x

let measure ~random st ~qubit ~bit =
  Obs.incr "sim.stabilizer.measure";
  let outcome = sample ~random st qubit in
  set_bit st bit outcome;
  outcome

let reset ~random st q =
  Obs.incr "sim.stabilizer.reset";
  if sample ~random st q then flip st q

(* ------------------------------------------------------------------ *)
(* Program execution                                                  *)

let exec ~random st program =
  let ops = Program.kernels program in
  for k = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops k with
    | Program.Kmeasure { qubit; bit } ->
        ignore (measure ~random:(random ()) st ~qubit ~bit)
    | Program.Kreset q -> reset ~random:(random ()) st q
    | ( Program.Kx _ | Program.Kh _ | Program.Kphase _ | Program.Kdiag _
      | Program.Ku2 _ | Program.Kcond _ ) as op ->
        apply st op
  done;
  if Obs.enabled () then Obs.incr ~n:(Array.length ops) "sim.stabilizer.ops"

let run ~rng program =
  let st =
    create (Program.num_qubits program) ~num_bits:(Program.num_bits program)
  in
  exec ~random:(fun () -> Random.State.float rng 1.0) st program;
  st

(* The joint law of [qubits], one qubit at a time: a determined qubit
   fixes its bit, a random one splits the branch in two halves, each
   on its own copy ([st] itself is never collapsed). *)
let outcome_probabilities st qubits =
  let k = Array.length qubits in
  let pairs = ref [] in
  let rec go st ~owned j outcome p =
    if j = k then pairs := (outcome, p) :: !pairs
    else
      let q = qubits.(j) in
      let a = anticommuting st q in
      if a < 0 then
        go st ~owned (j + 1)
          (if determined st q then outcome lor (1 lsl j) else outcome)
          p
      else begin
        let one = copy st in
        let zero = if owned then st else copy st in
        collapse zero q a false;
        go zero ~owned:true (j + 1) outcome (p *. 0.5);
        collapse one q a true;
        go one ~owned:true (j + 1) (outcome lor (1 lsl j)) (p *. 0.5)
      end
  in
  go st ~owned:false 0 0 1.0;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !pairs

module Tableau_engine : Engine.Core with type state = t = struct
  type state = t

  let name = "stabilizer"
  let create = create
  let copy = copy
  let register = register
  let set_bit = set_bit
  let prob_one = prob_one
  let apply = apply
  let project = project
  let flip = flip
  let exec = exec
  let run = run
  let outcome_probabilities = outcome_probabilities
end
