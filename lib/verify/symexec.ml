(* Symbolic execution of a full dynamic instruction stream into a
   path sum.  Classical bits are tracked symbolically (a GF(2)
   polynomial per written bit), so classically controlled corrections
   fold back into the sum as guard factors; Reset is modelled as
   measure-and-discard; measurement records the qubit's current
   function as the bit's expression — see Pathsum for why this pins
   the branches without case-splitting. *)

open Circuit

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* The phase is write-only until [run] returns, so each gate only
   prepends its terms to [phase]; they are summed and sorted once, at
   the end. *)
type state = {
  mutable scale : int;
  mutable phase : (int list * int) list;
  outputs : Pathsum.Bexpr.t array;
  bits : Pathsum.Bexpr.t option array;
  mutable ghosts : Pathsum.Bexpr.t list;
  mutable next_var : int;
}

let fresh st =
  let v = st.next_var in
  st.next_var <- v + 1;
  v

(* phase += c.m, for a sorted monomial [m] *)
let add_term st m c = st.phase <- (m, c) :: st.phase

let add_phase st p = st.phase <- Pathsum.Phase.terms p @ st.phase

(* Hadamard on [t]: new path variable y, phase += 4.y.L(f_t),
   f_t := y.  Only unguarded: a controlled H has no phase-polynomial
   form here. *)
let apply_h st target =
  let y = fresh st in
  List.iter
    (fun m -> add_term st (Pathsum.Bexpr.union_vars [ y ] m) 4)
    (Pathsum.Bexpr.monomials st.outputs.(target));
  st.outputs.(target) <- Pathsum.Bexpr.var y;
  st.scale <- st.scale + 1

(* phase gate diag(1, omega^c) applied under guard [g]:
   phase += c.L(g AND f_t) *)
let apply_phase_gate st c guard target =
  let e = Pathsum.Bexpr.conj guard st.outputs.(target) in
  add_phase st
    (if c mod 4 = 0 then Pathsum.Phase.scale (c / 4) (Pathsum.Phase.lift4 e)
     else Pathsum.Phase.scale c (Pathsum.Phase.lift e))

let apply_x st guard target =
  st.outputs.(target) <- Pathsum.Bexpr.xor st.outputs.(target) guard

(* the number of quarter-turns of an angle, when exact enough *)
let quarter_turns theta =
  let q = theta /. (Float.pi /. 2.) in
  let r = Float.round q in
  if Float.abs (q -. r) < 1e-9 then Some (int_of_float r) else None

let eighth_turns theta =
  let q = theta /. (Float.pi /. 4.) in
  let r = Float.round q in
  if Float.abs (q -. r) < 1e-9 then Some (int_of_float r) else None

let rec apply_gate st (g : Gate.t) guard target =
  let guarded = Pathsum.Bexpr.is_const guard <> Some true in
  match g with
  | Gate.X -> apply_x st guard target
  | Gate.Z -> apply_phase_gate st 4 guard target
  | Gate.S -> apply_phase_gate st 2 guard target
  | Gate.Sdg -> apply_phase_gate st 6 guard target
  | Gate.T -> apply_phase_gate st 1 guard target
  | Gate.Tdg -> apply_phase_gate st 7 guard target
  | Gate.Y ->
      (* Y = i.X.Z: phase i when the guard holds, then guarded Z, X *)
      add_phase st (Pathsum.Phase.scale 2 (Pathsum.Phase.lift guard));
      apply_phase_gate st 4 guard target;
      apply_x st guard target
  | Gate.H ->
      if guarded then unsupported "controlled/conditioned H has no exact form"
      else apply_h st target
  | Gate.V ->
      (* V = H.S.H exactly, and controls commute with the H-conjugation:
         C(V) = (I(x)H).C(S).(I(x)H) *)
      apply_h st target;
      apply_phase_gate st 2 guard target;
      apply_h st target
  | Gate.Vdg ->
      apply_h st target;
      apply_phase_gate st 6 guard target;
      apply_h st target
  | Gate.Phase theta -> (
      match eighth_turns theta with
      | Some k -> apply_phase_gate st k guard target
      | None -> unsupported "phase(%g) is not a multiple of pi/4" theta)
  | Gate.Rz theta -> (
      (* Rz(j.pi/2) = omega^{-j} . diag(1, omega^{2j}) *)
      match quarter_turns theta with
      | Some j ->
          add_phase st
            (Pathsum.Phase.scale ((8 - (j mod 8)) mod 8)
               (Pathsum.Phase.lift guard));
          apply_phase_gate st (2 * j) guard target
      | None -> unsupported "rz(%g) is not a multiple of pi/2" theta)
  | Gate.Rx theta -> (
      match quarter_turns theta with
      | Some _ ->
          (* Rx = H.Rz.H, controls again commuting with the conjugation *)
          apply_h st target;
          apply_gate st (Gate.Rz theta) guard target;
          apply_h st target
      | None -> unsupported "rx(%g) is not a multiple of pi/2" theta)
  | Gate.Ry theta -> unsupported "ry(%g) has no exact path-sum form" theta

(* a recorded expression that duplicates an existing observation (up
   to negation) pins nothing new *)
let already_observed st e =
  let dup o = Pathsum.Bexpr.equal o e || Pathsum.Bexpr.equal o (Pathsum.Bexpr.not_ e) in
  Array.exists (function Some o -> dup o | None -> false) st.bits
  || List.exists dup st.ghosts

let measure st ~qubit ~bit =
  (match st.bits.(bit) with
  | Some old ->
      (* the clobbered observation already pinned its paths: keep it as
         a ghost unless it is constant or duplicated elsewhere *)
      let dup o =
        Pathsum.Bexpr.equal o old
        || Pathsum.Bexpr.equal o (Pathsum.Bexpr.not_ old)
      in
      let elsewhere = ref false in
      Array.iteri
        (fun b e ->
          match e with
          | Some o when b <> bit && dup o -> elsewhere := true
          | Some _ | None -> ())
        st.bits;
      if
        Pathsum.Bexpr.is_const old = None
        && (not !elsewhere)
        && not (List.exists dup st.ghosts)
      then st.ghosts <- st.ghosts @ [ old ]
  | None -> ());
  st.bits.(bit) <- Some st.outputs.(qubit)

let reset st qubit =
  let e = st.outputs.(qubit) in
  (match Pathsum.Bexpr.is_const e with
  | Some _ -> ()
  | None ->
      (* measure-and-discard: if the value is already pinned by a
         recorded observation, discarding it decoheres nothing new;
         otherwise keep the expression as a ghost observation *)
      if not (already_observed st e) then st.ghosts <- st.ghosts @ [ e ]);
  st.outputs.(qubit) <- Pathsum.Bexpr.zero

let guard_of st ~controls ~tests =
  let g =
    List.fold_left
      (fun acc q -> Pathsum.Bexpr.conj acc st.outputs.(q))
      Pathsum.Bexpr.one controls
  in
  List.fold_left
    (fun acc (b, v) ->
      (* every engine starts the register at 0: an unwritten bit is the
         constant 0 *)
      let e = Option.value st.bits.(b) ~default:Pathsum.Bexpr.zero in
      Pathsum.Bexpr.conj acc (if v then e else Pathsum.Bexpr.not_ e))
    g tests

let step st (i : Instruction.t) =
  match i with
  | Instruction.Unitary { gate; controls; target } ->
      apply_gate st gate (guard_of st ~controls ~tests:[]) target
  | Instruction.Conditioned (cond, { gate; controls; target }) ->
      apply_gate st gate (guard_of st ~controls ~tests:cond.bits) target
  | Instruction.Measure { qubit; bit } -> measure st ~qubit ~bit
  | Instruction.Reset q -> reset st q
  | Instruction.Barrier _ -> ()

let run ?(measures = []) c =
  Obs.with_span "verify.symexec" (fun () ->
      let num_qubits = Circ.num_qubits c in
      let num_bits =
        List.fold_left
          (fun acc (_, b) -> max acc (b + 1))
          (Circ.num_bits c) measures
      in
      let st =
        {
          scale = 0;
          phase = [];
          outputs = Array.make num_qubits Pathsum.Bexpr.zero;
          bits = Array.make num_bits None;
          ghosts = [];
          next_var = 0;
        }
      in
      let count = ref 0 in
      List.iter
        (fun i ->
          incr count;
          step st i)
        (Circ.instructions c);
      List.iter (fun (qubit, bit) -> measure st ~qubit ~bit) measures;
      Obs.incr ~n:!count "verify.symexec.instructions";
      {
        Pathsum.scale = st.scale;
        phase = Pathsum.Phase.of_terms st.phase;
        outputs = st.outputs;
        bits = st.bits;
        ghosts = st.ghosts;
        next_var = st.next_var;
        zero_amplitude = false;
      })
