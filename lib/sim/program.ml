open Circuit

(* Compiled execution plans.

   [compile] lowers a circuit's instruction list once into an array of
   specialized ops; [exec] then replays the array against a [State.t]
   with allocation-free float kernels.  The wins over the generic
   interpreter ([Statevector.apply_app]):

   - {b no matrix load}: X / H / phase / diagonal gates dispatch to
     bit-trick kernels instead of a boxed 2x2 complex multiply;
   - {b no per-index control test}: a controlled op iterates only the
     control-satisfying subspace (2^(n-k-1) pairs for k controls) by
     expanding a compact counter through the fixed bit positions,
     instead of scanning all 2^n indices and masking;
   - {b fusion}: adjacent single-qubit gates on the same target (same
     control mask) collapse into one 2x2 apply at compile time, and
     products that reach the identity are dropped entirely.  Measure,
     reset, conditioned gates and barriers are fusion barriers.

   The generic interpreter stays as the differential-testing reference
   (see test/test_program.ml). *)

(* Iteration plan for one (possibly controlled) 1-qubit op: [bit] is
   the target bit, [cmask] the control bits (all required 1), [pos]
   the positions of every fixed bit (controls + target), ascending —
   the data the subspace enumeration below expands a counter through. *)
type plan = { target : int; bit : int; cmask : int; pos : int array }

type op =
  | Xk of plan
  | Hk of plan
  | Phasek of { p : plan; re1 : float; im1 : float }
      (* diag(1, re1 + i.im1): touches only the |1> half of each pair *)
  | Diagk of { p : plan; re0 : float; im0 : float; re1 : float; im1 : float }
  | U2k of { p : plan; m : float array }
      (* generic 2x2: [| m00re; m00im; m01re; m01im; m10re; ... |] *)
  | Mk of { qubit : int; bit : int }
  | Rk of int
  | Ck of { mask : int; value : int; body : op }

type t = {
  n : int;
  num_bits : int;
  ops : op array;
  source_gates : int;
  fused : int;
  fallback : int;
}

let num_qubits t = t.n
let num_bits t = t.num_bits
let length t = Array.length t.ops
let get t k = t.ops.(k)
let source_gates t = t.source_gates
let fused_count t = t.fused
let fallback_count t = t.fallback

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)

let eps = 1e-12
let sq2 = 1. /. sqrt 2.
let is0 x = abs_float x <= eps

let mask_of_controls controls =
  List.fold_left (fun acc c -> acc lor (1 lsl c)) 0 controls

let controls_of_mask ~n cmask =
  let acc = ref [] in
  for q = n - 1 downto 0 do
    if cmask land (1 lsl q) <> 0 then acc := q :: !acc
  done;
  !acc

let make_plan ~n ~target ~cmask =
  let bit = 1 lsl target in
  let fixed = cmask lor bit in
  let pos = ref [] in
  for q = n - 1 downto 0 do
    if fixed land (1 lsl q) <> 0 then pos := q :: !pos
  done;
  { target; bit; cmask; pos = Array.of_list !pos }

let mat_of_gate g =
  let m = Gate.matrix g in
  let z r c : Complex.t = Linalg.Cmat.get m r c in
  let m00 = z 0 0 and m01 = z 0 1 and m10 = z 1 0 and m11 = z 1 1 in
  [|
    m00.re; m00.im; m01.re; m01.im; m10.re; m10.im; m11.re; m11.im;
  |]

(* [matmul a b] is the 2x2 complex product a.b — i.e. "apply b first,
   then a" when both act on the same target. *)
let matmul a b =
  let e m r c = (m.(2 * ((2 * r) + c)), m.((2 * ((2 * r) + c)) + 1)) in
  let out = Array.make 8 0. in
  for r = 0 to 1 do
    for c = 0 to 1 do
      let acc_re = ref 0. and acc_im = ref 0. in
      for k = 0 to 1 do
        let are, aim = e a r k and bre, bim = e b k c in
        acc_re := !acc_re +. ((are *. bre) -. (aim *. bim));
        acc_im := !acc_im +. ((are *. bim) +. (aim *. bre))
      done;
      out.(2 * ((2 * r) + c)) <- !acc_re;
      out.((2 * ((2 * r) + c)) + 1) <- !acc_im
    done
  done;
  out

let is_identity m =
  is0 (m.(0) -. 1.) && is0 m.(1) && is0 m.(2) && is0 m.(3) && is0 m.(4)
  && is0 m.(5)
  && is0 (m.(6) -. 1.)
  && is0 m.(7)

(* Pick the cheapest kernel the matrix admits.  Single standard gates
   hit the specialized cases with their exact float entries, so the
   kernels reproduce the generic interpreter bit-for-bit; fused
   products classify within [eps]. *)
let specialize plan m =
  let offdiag0 = is0 m.(2) && is0 m.(3) && is0 m.(4) && is0 m.(5) in
  let diag0 = is0 m.(0) && is0 m.(1) && is0 m.(6) && is0 m.(7) in
  if offdiag0 then
    if is0 (m.(0) -. 1.) && is0 m.(1) then
      Phasek { p = plan; re1 = m.(6); im1 = m.(7) }
    else
      Diagk { p = plan; re0 = m.(0); im0 = m.(1); re1 = m.(6); im1 = m.(7) }
  else if
    diag0
    && is0 (m.(2) -. 1.)
    && is0 m.(3)
    && is0 (m.(4) -. 1.)
    && is0 m.(5)
  then Xk plan
  else if
    is0 m.(1) && is0 m.(3) && is0 m.(5) && is0 m.(7)
    && is0 (m.(0) -. sq2)
    && is0 (m.(2) -. sq2)
    && is0 (m.(4) -. sq2)
    && is0 (m.(6) +. sq2)
  then Hk plan
  else U2k { p = plan; m }

let compile_instructions ?(fuse = true) ~num_qubits:n ~num_bits instrs =
  let ops = ref [] in
  let count = ref 0 in
  let gates = ref 0 and fused = ref 0 and fallback = ref 0 in
  let emit op =
    (match op with
    | U2k _ | Ck { body = U2k _; _ } -> incr fallback
    | Xk _ | Hk _ | Phasek _ | Diagk _ | Mk _ | Rk _
    | Ck { body = Xk _ | Hk _ | Phasek _ | Diagk _ | Mk _ | Rk _ | Ck _; _ }
      ->
        ());
    ops := op :: !ops;
    incr count
  in
  (* pending fusion group: target, cmask, accumulated 2x2, gate count *)
  let pending = ref None in
  let flush () =
    match !pending with
    | None -> ()
    | Some (target, cmask, m, absorbed) ->
        let plan = make_plan ~n ~target ~cmask in
        if is_identity m then fused := !fused + absorbed
        else begin
          fused := !fused + (absorbed - 1);
          emit (specialize plan m)
        end;
        pending := None
  in
  let unitary_app (a : Instruction.app) =
    let cmask = mask_of_controls a.controls in
    let m = mat_of_gate a.gate in
    incr gates;
    if not fuse then emit (specialize (make_plan ~n ~target:a.target ~cmask) m)
    else
      match !pending with
      | Some (t, cm, pm, absorbed) when t = a.target && cm = cmask ->
          pending := Some (t, cm, matmul m pm, absorbed + 1)
      | Some _ | None ->
          flush ();
          pending := Some (a.target, cmask, m, 1)
  in
  List.iter
    (fun (i : Instruction.t) ->
      match i with
      | Unitary a -> unitary_app a
      | Conditioned (cond, a) ->
          flush ();
          incr gates;
          let mask = mask_of_controls (List.map fst cond.bits) in
          let value =
            List.fold_left
              (fun acc (b, v) -> if v then acc lor (1 lsl b) else acc)
              0 cond.bits
          in
          let cmask = mask_of_controls a.controls in
          let body =
            specialize (make_plan ~n ~target:a.target ~cmask) (mat_of_gate a.gate)
          in
          emit (Ck { mask; value; body })
      | Measure { qubit; bit } ->
          flush ();
          emit (Mk { qubit; bit })
      | Reset q ->
          flush ();
          emit (Rk q)
      | Barrier _ -> flush ())
    instrs;
  flush ();
  let t =
    {
      n;
      num_bits;
      ops = Array.of_list (List.rev !ops);
      source_gates = !gates;
      fused = !fused;
      fallback = !fallback;
    }
  in
  if Obs.enabled () then begin
    Obs.incr ~n:(Array.length t.ops) "sim.program.ops";
    Obs.incr ~n:t.fused "sim.program.fused";
    Obs.incr ~n:t.fallback "sim.program.fallback"
  end;
  t

let compile ?fuse c =
  Obs.with_span "program.compile"
    ~attrs:[ ("qubits", string_of_int (Circ.num_qubits c)) ]
    (fun () ->
      compile_instructions ?fuse ~num_qubits:(Circ.num_qubits c)
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

let split_prefix t =
  let is_branch = function
    | Mk _ | Rk _ -> true
    | Xk _ | Hk _ | Phasek _ | Diagk _ | U2k _ | Ck _ -> false
  in
  let len = Array.length t.ops in
  let k = ref 0 in
  while !k < len && not (is_branch t.ops.(!k)) do
    incr k
  done;
  ( { t with ops = Array.sub t.ops 0 !k },
    { t with ops = Array.sub t.ops !k (len - !k) } )

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

let kernel_x re im { bit; cmask; pos; _ } =
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

let kernel_h re im { bit; cmask; pos; _ } =
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

let kernel_phase re im { bit; cmask; pos; _ } zre zim =
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

let kernel_diag re im { bit; cmask; pos; _ } d0re d0im d1re d1im =
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
   Complex arithmetic of the reference interpreter — unfused gates
   reproduce it bit-for-bit. *)
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

let kernel_u2 re im { bit; cmask; pos; _ } m =
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
  | Xk p -> kernel_x re im p
  | Hk p -> kernel_h re im p
  | Phasek { p; re1; im1 } -> kernel_phase re im p re1 im1
  | Diagk { p; re0; im0; re1; im1 } -> kernel_diag re im p re0 im0 re1 im1
  | U2k { p; m } -> kernel_u2 re im p m
  | Ck { mask; value; body } ->
      if State.register st land mask = value then apply st body
  | Mk _ | Rk _ -> invalid_arg "Program.apply: branching op"

let[@inline] exec_op ~random st op =
  match op with
  | Mk { qubit; bit } ->
      ignore (State.measure ~random:(random ()) st ~qubit ~bit)
  | Rk q -> State.reset ~random:(random ()) st q
  | (Xk _ | Hk _ | Phasek _ | Diagk _ | U2k _ | Ck _) as op -> apply st op

(* Constant per-class histogram names: the timed loop must not build
   strings per op. *)
let op_hist_name = function
  | Xk _ -> "sim.program.op.x"
  | Hk _ -> "sim.program.op.h"
  | Phasek _ -> "sim.program.op.phase"
  | Diagk _ -> "sim.program.op.diag"
  | U2k _ -> "sim.program.op.u2"
  | Ck _ -> "sim.program.op.cond"
  | Mk _ -> "sim.program.op.measure"
  | Rk _ -> "sim.program.op.reset"

(* Per-op timing is sampled: one replay in [op_sample_every] runs the
   timed loop, the rest run the production loop even with a collector
   installed.  A fused op is tens of ns and a mid-replay clock read is
   several hundred (the replay just evicted the vDSO page), so timing
   every op of every shot costs ~10% of the prefix-cached reference
   run — far over the <2% telemetry budget in docs/OBSERVABILITY.md.
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

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)

type kernel =
  | Kx of { bit : int; cmask : int }
  | Kh of { bit : int; cmask : int }
  | Kphase of { bit : int; cmask : int; re1 : float; im1 : float }
  | Kdiag of {
      bit : int;
      cmask : int;
      re0 : float;
      im0 : float;
      re1 : float;
      im1 : float;
    }
  | Ku2 of { bit : int; cmask : int; m : float array }
  | Kmeasure of { qubit : int; bit : int }
  | Kreset of int
  | Kcond of { mask : int; value : int; body : kernel }

let rec kernel_of_op = function
  | Xk p -> Kx { bit = p.bit; cmask = p.cmask }
  | Hk p -> Kh { bit = p.bit; cmask = p.cmask }
  | Phasek { p; re1; im1 } -> Kphase { bit = p.bit; cmask = p.cmask; re1; im1 }
  | Diagk { p; re0; im0; re1; im1 } ->
      Kdiag { bit = p.bit; cmask = p.cmask; re0; im0; re1; im1 }
  | U2k { p; m } -> Ku2 { bit = p.bit; cmask = p.cmask; m }
  | Mk { qubit; bit } -> Kmeasure { qubit; bit }
  | Rk q -> Kreset q
  | Ck { mask; value; body } ->
      Kcond { mask; value; body = kernel_of_op body }

let kernel op = kernel_of_op op
let kernels t = Array.map kernel_of_op t.ops

type view =
  | Unitary of { target : int; controls : int list }
  | Conditional of { mask : int; value : int; target : int; controls : int list }
  | Measurement of { qubit : int; bit : int }
  | Reset of int

let rec view ~n op =
  match op with
  | Xk p | Hk p | Phasek { p; _ } | Diagk { p; _ } | U2k { p; _ } ->
      Unitary { target = p.target; controls = controls_of_mask ~n p.cmask }
  | Mk { qubit; bit } -> Measurement { qubit; bit }
  | Rk q -> Reset q
  | Ck { mask; value; body } -> (
      match view ~n body with
      | Unitary { target; controls } -> Conditional { mask; value; target; controls }
      | Conditional _ | Measurement _ | Reset _ ->
          invalid_arg "Program.view: malformed conditional body")
