open Circuit

(* Public face of the dense simulator.  The state itself lives in
   [State] (SoA amplitudes); the compiled execution path lives in
   [Program].  This module re-exports the state primitives, keeps the
   generic boxed-matrix interpreter as the differential-testing
   reference, and routes [run] through the compiled path. *)

type t = State.t

let max_qubits = State.max_qubits
let create = State.create
let num_qubits = State.num_qubits
let num_bits = State.num_bits
let copy = State.copy
let amplitudes = State.amplitudes
let register = State.register
let set_bit = State.set_bit
let get_bit = State.get_bit

(* Reference path: apply the 2x2 matrix [m] to qubit [q] on amplitude
   pairs whose index has every bit of [cmask] set — a full 2^n scan
   with a per-index mask test.  [Program]'s kernels are the optimized
   replacement; this stays as the semantics oracle. *)
let apply_matrix1 st m ~q ~cmask =
  let bit = 1 lsl q in
  let m00 : Complex.t = Linalg.Cmat.get m 0 0
  and m01 : Complex.t = Linalg.Cmat.get m 0 1
  and m10 : Complex.t = Linalg.Cmat.get m 1 0
  and m11 : Complex.t = Linalg.Cmat.get m 1 1 in
  let v = State.raw st in
  let re = Linalg.Cvec.re v and im = Linalg.Cvec.im v in
  let dim = Array.length re in
  for idx = 0 to dim - 1 do
    if idx land bit = 0 && idx land cmask = cmask then begin
      let i0 = idx and i1 = idx lor bit in
      let r0 = re.(i0) and x0 = im.(i0) in
      let r1 = re.(i1) and x1 = im.(i1) in
      re.(i0) <-
        ((m00.re *. r0) -. (m00.im *. x0)) +. ((m01.re *. r1) -. (m01.im *. x1));
      im.(i0) <-
        ((m00.re *. x0) +. (m00.im *. r0)) +. ((m01.re *. x1) +. (m01.im *. r1));
      re.(i1) <-
        ((m10.re *. r0) -. (m10.im *. x0)) +. ((m11.re *. r1) -. (m11.im *. x1));
      im.(i1) <-
        ((m10.re *. x0) +. (m10.im *. r0)) +. ((m11.re *. x1) +. (m11.im *. r1))
    end
  done

let apply_app st (a : Instruction.app) =
  if Obs.enabled () then Obs.incr ("sim.statevector.gate." ^ Gate.kind a.gate);
  let cmask =
    List.fold_left (fun acc c -> acc lor (1 lsl c)) 0 a.controls
  in
  (* a control bit inside cmask must be 1, and the target pair index has
     the target bit clear, so exclude the target from the mask *)
  apply_matrix1 st (Gate.matrix a.gate) ~q:a.target ~cmask

let apply_gate st g q = apply_app st (Instruction.app g q)

let apply_kraus1 st m q =
  if Linalg.Cmat.rows m <> 2 || Linalg.Cmat.cols m <> 2 then
    invalid_arg "Statevector.apply_kraus1: not a 1-qubit operator";
  apply_matrix1 st m ~q ~cmask:0;
  if State.norm2 st <= 1e-18 then
    invalid_arg "Statevector.apply_kraus1: zero-norm result";
  State.renormalize st

let prob_one = State.prob_one

exception Zero_probability_branch = State.Zero_probability_branch

let project = State.project
let measure = State.measure
let reset = State.reset

let run_instruction ~random st (i : Instruction.t) =
  match i with
  | Unitary a -> apply_app st a
  | Conditioned (c, a) ->
      if Instruction.cond_holds c (State.register st) then apply_app st a
  | Measure { qubit; bit } ->
      ignore (measure ~random:(random ()) st ~qubit ~bit)
  | Reset q -> reset ~random:(random ()) st q
  | Barrier _ -> ()

(* The generic interpreter, kept verbatim as the differential-testing
   reference for the compiled path (test/test_program.ml). *)
let run_reference ~rng c =
  let st = create (Circ.num_qubits c) ~num_bits:(Circ.num_bits c) in
  let random () = Random.State.float rng 1.0 in
  List.iter (run_instruction ~random st) (Circ.instructions c);
  st

let run ~rng c = Program.run_circuit ~rng c

let probabilities = State.probabilities

(* The dense SoA storage as an [Engine.S] instance: every primitive
   delegates to [State] / [Program], so the engine-polymorphic walk
   behaves bit-for-bit like the direct calls. *)
module Dense_engine : Engine.S with type state = State.t = struct
  type state = State.t

  let name = "dense"
  let create = State.create
  let copy = State.copy
  let register = State.register
  let set_bit = State.set_bit
  let prob_one = State.prob_one
  let apply = Program.apply
  let project = State.project
  let flip = State.flip
  let exec = Program.exec
  let run ~rng program = Program.run ~rng program

  (* one accumulator slot per outcome: 2^k floats for k <= n qubits,
     at most half the size of the state itself *)
  let outcome_probabilities st qubits =
    let v = State.raw st in
    let re = Linalg.Cvec.re v and im = Linalg.Cvec.im v in
    let acc = Array.make (1 lsl Array.length qubits) 0. in
    for i = 0 to Array.length re - 1 do
      let r = Array.unsafe_get re i and x = Array.unsafe_get im i in
      let p = (r *. r) +. (x *. x) in
      if p > 0. then begin
        let o = Bits.gather i qubits in
        acc.(o) <- acc.(o) +. p
      end
    done;
    let pairs = ref [] in
    for o = Array.length acc - 1 downto 0 do
      if acc.(o) > 0. then pairs := (o, acc.(o)) :: !pairs
    done;
    !pairs

  let of_state st = st
  let to_state st = st
end
