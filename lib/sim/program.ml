open Circuit

(* Compiled execution plans.

   [compile] lowers a circuit's instruction list once into an array of
   specialized ops ([kernel]s), one per unitary, conditioned, measure
   or reset instruction; [exec] then replays the array against a
   [State.t] with float kernels that allocate nothing.  The wins over
   the generic interpreter ([Statevector.apply_app]):

   - {b no matrix load}: X / H / phase / diagonal gates dispatch to
     bit-trick kernels instead of a boxed 2x2 complex multiply;
   - {b no per-index control test}: a controlled op iterates only the
     control-satisfying subspace (2^(n-k-1) pairs for k controls) by
     expanding a compact counter through the fixed bit positions,
     instead of scanning all 2^n indices and masking.

   Each kernel does the interpreter's float arithmetic on the gate's
   exact matrix entries, so the compiled path reproduces the generic
   interpreter bit for bit; the interpreter stays as the
   differential-testing reference (see test/test_program.ml). *)

(* One compiled op.  A unitary carries its target qubit [target], its
   target bit [bit], its control bits [cmask] (all required 1) and
   [pos], the positions of every fixed bit (controls + target),
   ascending — the data the subspace enumeration below expands a
   counter through.  [bit] and [cmask] overflow past 63 qubits, where
   only the tableau runs, and it reads [target] and [pos]. *)
type kernel =
  | Kx of { target : int; bit : int; cmask : int; pos : int array }
  | Kh of { target : int; bit : int; cmask : int; pos : int array }
  | Kphase of {
      target : int;
      bit : int;
      cmask : int;
      pos : int array;
      re1 : float;
      im1 : float;
    }
      (* diag(1, re1 + i.im1): touches only the |1> half of each pair *)
  | Kdiag of {
      target : int;
      bit : int;
      cmask : int;
      pos : int array;
      re0 : float;
      im0 : float;
      re1 : float;
      im1 : float;
    }
  | Ku2 of {
      target : int;
      bit : int;
      cmask : int;
      pos : int array;
      m : float array;
    }
      (* generic 2x2: [| m00re; m00im; m01re; m01im; m10re; ... |] *)
  | Kmeasure of { qubit : int; bit : int }
  | Kreset of int
  | Kcond of { mask : int; value : int; body : kernel }

type t = { n : int; num_bits : int; ops : kernel array }

let num_qubits t = t.n
let num_bits t = t.num_bits
let length t = Array.length t.ops
let get t k = t.ops.(k)
let kernels t = t.ops

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)

let sq2 = 1. /. sqrt 2.
let is0 (x : float) = x = 0.

let mask_of_controls controls =
  List.fold_left (fun acc c -> acc lor (1 lsl c)) 0 controls

(* from the qubit indices, not the masks: exact at any width *)
let fixed_positions ~target ~controls =
  Array.of_list (List.sort_uniq Int.compare (target :: controls))

let mat_of_gate g =
  let m = Gate.matrix g in
  let z r c : Complex.t = Linalg.Cmat.get m r c in
  let m00 = z 0 0 and m01 = z 0 1 and m10 = z 1 0 and m11 = z 1 1 in
  [|
    m00.re; m00.im; m01.re; m01.im; m10.re; m10.im; m11.re; m11.im;
  |]

(* Pick the cheapest kernel the matrix admits, comparing entries
   exactly.  A specialized kernel skips the terms its class fixes at 0
   or 1, which is the generic interpreter's arithmetic only when those
   entries are exactly 0 or 1: Rx(2pi), whose off-diagonal is 1e-16,
   keeps the generic 2x2.  Standard gates' entries are exact, so they
   hit the specialized cases. *)
let specialize ~target ~controls m =
  let bit = 1 lsl target and cmask = mask_of_controls controls in
  let pos = fixed_positions ~target ~controls in
  let offdiag0 = is0 m.(2) && is0 m.(3) && is0 m.(4) && is0 m.(5) in
  let diag0 = is0 m.(0) && is0 m.(1) && is0 m.(6) && is0 m.(7) in
  if offdiag0 then
    if is0 (m.(0) -. 1.) && is0 m.(1) then
      Kphase { target; bit; cmask; pos; re1 = m.(6); im1 = m.(7) }
    else
      Kdiag
        {
          target;
          bit;
          cmask;
          pos;
          re0 = m.(0);
          im0 = m.(1);
          re1 = m.(6);
          im1 = m.(7);
        }
  else if
    diag0
    && is0 (m.(2) -. 1.)
    && is0 m.(3)
    && is0 (m.(4) -. 1.)
    && is0 m.(5)
  then Kx { target; bit; cmask; pos }
  else if
    is0 m.(1) && is0 m.(3) && is0 m.(5) && is0 m.(7)
    && is0 (m.(0) -. sq2)
    && is0 (m.(2) -. sq2)
    && is0 (m.(4) -. sq2)
    && is0 (m.(6) +. sq2)
  then Kh { target; bit; cmask; pos }
  else Ku2 { target; bit; cmask; pos; m }

let compile_instructions ~num_qubits:n ~num_bits instrs =
  let lower (a : Instruction.app) =
    specialize ~target:a.target ~controls:a.controls (mat_of_gate a.gate)
  in
  let ops =
    Array.of_list
      (List.filter_map
         (fun (i : Instruction.t) ->
           match i with
           | Unitary a -> Some (lower a)
           | Conditioned (cond, a) ->
               let mask = mask_of_controls (List.map fst cond.bits) in
               let value =
                 List.fold_left
                   (fun acc (b, v) -> if v then acc lor (1 lsl b) else acc)
                   0 cond.bits
               in
               Some (Kcond { mask; value; body = lower a })
           | Measure { qubit; bit } -> Some (Kmeasure { qubit; bit })
           | Reset q -> Some (Kreset q)
           | Barrier _ -> None)
         instrs)
  in
  if Obs.enabled () then begin
    let fallback =
      Array.fold_left
        (fun acc -> function
          | Ku2 _ | Kcond { body = Ku2 _; _ } -> acc + 1
          | Kx _ | Kh _ | Kphase _ | Kdiag _ | Kmeasure _ | Kreset _ | Kcond _
            ->
              acc)
        0 ops
    in
    Obs.incr ~n:(Array.length ops) "sim.program.ops";
    Obs.incr ~n:fallback "sim.program.fallback"
  end;
  { n; num_bits; ops }

let compile c =
  Obs.with_span "program.compile"
    ~attrs:[ ("qubits", string_of_int (Circ.num_qubits c)) ]
    (fun () ->
      compile_instructions ~num_qubits:(Circ.num_qubits c)
        ~num_bits:(Circ.num_bits c) (Circ.instructions c))

exception Unexpected_random_draw

let () =
  Printexc.register_printer (function
    | Unexpected_random_draw ->
        Some
          "Sim.Program.Unexpected_random_draw: ops before the first \
           measure/reset draw no randomness, yet a no-random replay drew"
    | _ -> None)

let no_random () = raise Unexpected_random_draw

let sub t ~pos ~len = { t with ops = Array.sub t.ops pos len }

let split_prefix t =
  let is_branch = function
    | Kmeasure _ | Kreset _ -> true
    | Kx _ | Kh _ | Kphase _ | Kdiag _ | Ku2 _ | Kcond _ -> false
  in
  let len = Array.length t.ops in
  let k = ref 0 in
  while !k < len && not (is_branch t.ops.(!k)) do
    incr k
  done;
  (sub t ~pos:0 ~len:!k, sub t ~pos:!k ~len:(len - !k))

(* ------------------------------------------------------------------ *)
(* Kernels                                                            *)

(* Expand counter [k] to a full index by inserting a 0 bit at every
   fixed position (ascending): the enumeration of the subspace where
   all fixed bits are clear.  OR-ing [cmask] (and the target bit) back
   in lands on exactly the control-satisfying amplitudes. *)
let[@inline] expand pos k =
  let idx = ref k in
  for j = 0 to Array.length pos - 1 do
    let p = Array.unsafe_get pos j in
    let low = (1 lsl p) - 1 in
    idx := ((!idx land lnot low) lsl 1) lor (!idx land low)
  done;
  !idx

(* The only kernel without float arithmetic: without the annotation
   OCaml types [re]/[im] as ['a array] and boxes both floats of every
   swap. *)
let kernel_x (re : float array) (im : float array) bit cmask pos =
  let dim = Array.length re in
  if cmask = 0 then begin
    let base = ref 0 in
    while !base < dim do
      for i0 = !base to !base + bit - 1 do
        let i1 = i0 lor bit in
        let r = Array.unsafe_get re i0 in
        Array.unsafe_set re i0 (Array.unsafe_get re i1);
        Array.unsafe_set re i1 r;
        let i = Array.unsafe_get im i0 in
        Array.unsafe_set im i0 (Array.unsafe_get im i1);
        Array.unsafe_set im i1 i
      done;
      base := !base + bit + bit
    done
  end
  else
    for k = 0 to (dim lsr Array.length pos) - 1 do
      let i0 = expand pos k lor cmask in
      let i1 = i0 lor bit in
      let r = Array.unsafe_get re i0 in
      Array.unsafe_set re i0 (Array.unsafe_get re i1);
      Array.unsafe_set re i1 r;
      let i = Array.unsafe_get im i0 in
      Array.unsafe_set im i0 (Array.unsafe_get im i1);
      Array.unsafe_set im i1 i
    done

let[@inline] butterfly_h re im i0 i1 =
  let r0 = Array.unsafe_get re i0
  and r1 = Array.unsafe_get re i1
  and x0 = Array.unsafe_get im i0
  and x1 = Array.unsafe_get im i1 in
  Array.unsafe_set re i0 ((sq2 *. r0) +. (sq2 *. r1));
  Array.unsafe_set im i0 ((sq2 *. x0) +. (sq2 *. x1));
  Array.unsafe_set re i1 ((sq2 *. r0) -. (sq2 *. r1));
  Array.unsafe_set im i1 ((sq2 *. x0) -. (sq2 *. x1))

let kernel_h re im bit cmask pos =
  let dim = Array.length re in
  if cmask = 0 then begin
    let base = ref 0 in
    while !base < dim do
      for i0 = !base to !base + bit - 1 do
        butterfly_h re im i0 (i0 lor bit)
      done;
      base := !base + bit + bit
    done
  end
  else
    for k = 0 to (dim lsr Array.length pos) - 1 do
      let i0 = expand pos k lor cmask in
      butterfly_h re im i0 (i0 lor bit)
    done

let[@inline] rotate re im i zre zim =
  let r = Array.unsafe_get re i and x = Array.unsafe_get im i in
  Array.unsafe_set re i ((zre *. r) -. (zim *. x));
  Array.unsafe_set im i ((zre *. x) +. (zim *. r))

let kernel_phase re im bit cmask pos zre zim =
  let dim = Array.length re in
  if cmask = 0 then begin
    let base = ref bit in
    while !base < dim do
      for i1 = !base to !base + bit - 1 do
        rotate re im i1 zre zim
      done;
      base := !base + bit + bit
    done
  end
  else begin
    let set = cmask lor bit in
    for k = 0 to (dim lsr Array.length pos) - 1 do
      rotate re im (expand pos k lor set) zre zim
    done
  end

let kernel_diag re im bit cmask pos d0re d0im d1re d1im =
  let dim = Array.length re in
  if cmask = 0 then begin
    let base = ref 0 in
    while !base < dim do
      for i0 = !base to !base + bit - 1 do
        rotate re im i0 d0re d0im;
        rotate re im (i0 lor bit) d1re d1im
      done;
      base := !base + bit + bit
    done
  end
  else
    for k = 0 to (dim lsr Array.length pos) - 1 do
      let i0 = expand pos k lor cmask in
      rotate re im i0 d0re d0im;
      rotate re im (i0 lor bit) d1re d1im
    done

(* Generic 2x2, with the same product/sum association as the boxed
   Complex arithmetic of the reference interpreter, so it reproduces
   the interpreter bit for bit. *)
let[@inline] butterfly_u2 re im i0 i1 m =
  let m00re = Array.unsafe_get m 0
  and m00im = Array.unsafe_get m 1
  and m01re = Array.unsafe_get m 2
  and m01im = Array.unsafe_get m 3
  and m10re = Array.unsafe_get m 4
  and m10im = Array.unsafe_get m 5
  and m11re = Array.unsafe_get m 6
  and m11im = Array.unsafe_get m 7 in
  let r0 = Array.unsafe_get re i0
  and r1 = Array.unsafe_get re i1
  and x0 = Array.unsafe_get im i0
  and x1 = Array.unsafe_get im i1 in
  Array.unsafe_set re i0
    (((m00re *. r0) -. (m00im *. x0)) +. ((m01re *. r1) -. (m01im *. x1)));
  Array.unsafe_set im i0
    (((m00re *. x0) +. (m00im *. r0)) +. ((m01re *. x1) +. (m01im *. r1)));
  Array.unsafe_set re i1
    (((m10re *. r0) -. (m10im *. x0)) +. ((m11re *. r1) -. (m11im *. x1)));
  Array.unsafe_set im i1
    (((m10re *. x0) +. (m10im *. r0)) +. ((m11re *. x1) +. (m11im *. r1)))

let kernel_u2 re im bit cmask pos m =
  let dim = Array.length re in
  if cmask = 0 then begin
    let base = ref 0 in
    while !base < dim do
      for i0 = !base to !base + bit - 1 do
        butterfly_u2 re im i0 (i0 lor bit) m
      done;
      base := !base + bit + bit
    done
  end
  else
    for k = 0 to (dim lsr Array.length pos) - 1 do
      let i0 = expand pos k lor cmask in
      butterfly_u2 re im i0 (i0 lor bit) m
    done

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)

let rec apply st op =
  let v = State.raw st in
  let re = Linalg.Cvec.re v and im = Linalg.Cvec.im v in
  match op with
  | Kx { bit; cmask; pos; _ } -> kernel_x re im bit cmask pos
  | Kh { bit; cmask; pos; _ } -> kernel_h re im bit cmask pos
  | Kphase { bit; cmask; pos; re1; im1; _ } ->
      kernel_phase re im bit cmask pos re1 im1
  | Kdiag { bit; cmask; pos; re0; im0; re1; im1; _ } ->
      kernel_diag re im bit cmask pos re0 im0 re1 im1
  | Ku2 { bit; cmask; pos; m; _ } -> kernel_u2 re im bit cmask pos m
  | Kcond { mask; value; body } ->
      if State.register st land mask = value then apply st body
  | Kmeasure _ | Kreset _ -> invalid_arg "Program.apply: branching op"

let[@inline] exec_op ~random st op =
  match op with
  | Kmeasure { qubit; bit } ->
      ignore (State.measure ~random:(random ()) st ~qubit ~bit)
  | Kreset q -> State.reset ~random:(random ()) st q
  | (Kx _ | Kh _ | Kphase _ | Kdiag _ | Ku2 _ | Kcond _) as op -> apply st op

(* Constant per-class histogram names: the timed loop must not build
   strings per op. *)
let op_hist_name = function
  | Kx _ -> "sim.program.op.x"
  | Kh _ -> "sim.program.op.h"
  | Kphase _ -> "sim.program.op.phase"
  | Kdiag _ -> "sim.program.op.diag"
  | Ku2 _ -> "sim.program.op.u2"
  | Kcond _ -> "sim.program.op.cond"
  | Kmeasure _ -> "sim.program.op.measure"
  | Kreset _ -> "sim.program.op.reset"

(* Per-op timing is sampled: one replay in [op_sample_every] runs the
   timed loop, the rest run the production loop even with a collector
   installed.  An op on a small state is tens of ns and a mid-replay
   clock read is several hundred (the replay just evicted the vDSO
   page), so timing every op cost ~10% of the per-shot reference run
   (4096 shots of DJ(AND_9)) — far over the <2% telemetry budget in
   docs/OBSERVABILITY.md.
   Sampling keeps the per-class distributions (hundreds of
   observations on any real workload, the count says how many) at a
   small fraction of that cost.  The tick is per-domain, so parallel
   workers sample independently without contention. *)
let op_sample_every = 256

let op_sample_tick = Domain.DLS.new_key (fun () -> ref 0)

let exec_plain ~random st ops =
  for k = 0 to Array.length ops - 1 do
    exec_op ~random st (Array.unsafe_get ops k)
  done

(* Timestamps are chained — op [k]'s end read doubles as op [k+1]'s
   start read, halving the clock reads per timed replay.  A bracket
   therefore also covers the previous op's histogram record (tens of
   ns against the µs-scale op costs measured here).  Recording goes
   straight to the domain-local handle: exec_timed only runs with a
   collector installed, so the per-record enabled check and DLS fetch
   that [Obs.record_ns] would pay are redundant. *)
let exec_timed ~random st ops =
  let t = ref (Obs.Clock.now_ns ()) in
  for k = 0 to Array.length ops - 1 do
    let op = Array.unsafe_get ops k in
    exec_op ~random st op;
    let t1 = Obs.Clock.now_ns () in
    Obs.Histogram.record
      (Obs.local_histogram (op_hist_name op))
      (Int64.to_int (Int64.sub t1 !t));
    t := t1
  done

let exec ~random st t =
  if not (Obs.enabled ()) then
    (* the production path: one Atomic load for the whole replay *)
    exec_plain ~random st t.ops
  else begin
    let tick = Domain.DLS.get op_sample_tick in
    let k = !tick in
    tick := k + 1;
    if k land (op_sample_every - 1) = 0 then exec_timed ~random st t.ops
    else exec_plain ~random st t.ops
  end

let fresh_state t = State.create t.n ~num_bits:t.num_bits

let run ~rng t =
  let st = fresh_state t in
  exec ~random:(fun () -> Random.State.float rng 1.0) st t;
  st

let run_circuit ~rng c = run ~rng (compile c)
