open Circuit

exception Unsupported of string

(* Aaronson-Gottesman tableau: rows 0..n-1 destabilizers, n..2n-1
   stabilizers, row 2n scratch.  x.(i).(q)/z.(i).(q) are the Pauli
   X/Z components of generator i on qubit q; r.(i) the sign bit. *)
type t = {
  n : int;
  num_bits : int;
  x : bool array array;
  z : bool array array;
  r : bool array;
  mutable reg : int;
}

let create n ~num_bits =
  if n < 1 || n > 4096 then invalid_arg "Stabilizer.create: 1..4096 qubits";
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
  { n; num_bits; x; z; r; reg = 0 }

let num_qubits st = st.n
let register st = st.reg

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

let apply_cx st a b =
  for i = 0 to (2 * st.n) - 1 do
    if st.x.(i).(a) && st.z.(i).(b) && st.x.(i).(b) = st.z.(i).(a) then
      st.r.(i) <- not st.r.(i);
    st.x.(i).(b) <- st.x.(i).(b) <> st.x.(i).(a);
    st.z.(i).(a) <- st.z.(i).(a) <> st.z.(i).(b)
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

let apply_gate st (gate : Gate.t) a =
  match gate with
  | Gate.H -> apply_h st a
  | Gate.X -> apply_x st a
  | Gate.Y -> apply_y st a
  | Gate.Z -> apply_z st a
  | Gate.S -> apply_s st a
  | Gate.Sdg ->
      apply_s st a;
      apply_s st a;
      apply_s st a
  | Gate.T | Gate.Tdg | Gate.V | Gate.Vdg | Gate.Rx _ | Gate.Ry _
  | Gate.Rz _ | Gate.Phase _ ->
      raise (Unsupported (Printf.sprintf "non-Clifford gate %s" (Gate.name gate)))

let apply_app st (app : Instruction.app) =
  if Obs.enabled () then Obs.incr ("sim.stabilizer.gate." ^ Gate.kind app.gate);
  match app.controls with
  | [] -> apply_gate st app.gate app.target
  | [ c ] -> (
      match[@warning "-4"] app.gate with
      | Gate.X -> apply_cx st c app.target
      | Gate.Z ->
          apply_h st app.target;
          apply_cx st c app.target;
          apply_h st app.target
      | g ->
          raise
            (Unsupported
               (Printf.sprintf "controlled-%s is not Clifford-simulable here"
                  (Gate.name g))))
  | _ :: _ :: _ -> raise (Unsupported "multi-control gate")

let scratch st = 2 * st.n

let measure ~rng st a =
  Obs.incr "sim.stabilizer.measure";
  (* random outcome iff some stabilizer anticommutes with Z_a *)
  let rec find_p i =
    if i >= 2 * st.n then None
    else if st.x.(i).(a) then Some i
    else find_p (i + 1)
  in
  match find_p st.n with
  | Some p ->
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
      let outcome = Random.State.bool rng in
      st.r.(p) <- outcome;
      outcome
  | None ->
      let s = scratch st in
      Array.fill st.x.(s) 0 st.n false;
      Array.fill st.z.(s) 0 st.n false;
      st.r.(s) <- false;
      for q = 0 to st.n - 1 do
        if st.x.(q).(a) then rowsum st s (q + st.n)
      done;
      st.r.(s)

let reset ~rng st a =
  let outcome = measure ~rng st a in
  if outcome then apply_x st a

let supports c =
  List.for_all
    (fun (i : Instruction.t) ->
      match i with
      | Unitary a | Conditioned (_, a) -> (
          match[@warning "-4"] (a.gate, a.controls) with
          | (Gate.H | Gate.X | Gate.Y | Gate.Z | Gate.S | Gate.Sdg), [] ->
              true
          | (Gate.X | Gate.Z), [ _ ] -> true
          | _ -> false)
      | Measure _ | Reset _ | Barrier _ -> true)
    (Circ.instructions c)

let run ~rng c =
  let st = create (Circ.num_qubits c) ~num_bits:(Circ.num_bits c) in
  let step (i : Instruction.t) =
    match i with
    | Unitary a -> apply_app st a
    | Conditioned (cond, a) ->
        if Instruction.cond_holds cond st.reg then apply_app st a
    | Measure { qubit; bit } ->
        let outcome = measure ~rng st qubit in
        st.reg <- Bits.set st.reg bit outcome
    | Reset q -> reset ~rng st q
    | Barrier _ -> ()
  in
  List.iter step (Circ.instructions c);
  st
