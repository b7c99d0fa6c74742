(* Hash-map basis-amplitude statevector.

   The state is a compact table of (basis index, amplitude) entries:
   parallel [idx]/[re]/[im] arrays hold the live entries in slots
   [0..size), and [tbl] maps a basis index to its slot.  Memory and
   per-op work scale with the number of nonzero amplitudes instead of
   with 2^n — exactly the resource the paper's dyn2 transform keeps
   small (ancillas stay in basis states, so a per-shot state has a
   handful of nonzeros regardless of width).

   Kernel fidelity: every kernel mirrors the dense [Program] kernels
   expression-for-expression (same products, same sum association,
   absent partners read as 0.), so on in-cap workloads the two engines
   agree amplitude-for-amplitude up to the pruning threshold and —
   because measurement outcomes are decided as [random < prob_one] in
   both — replay identical seed-deterministic shot streams.

   Pruning: mixing kernels (H / generic 2x2) are the only ops that can
   cancel amplitudes to (near-)zero; after each one, entries with
   |amp|^2 <= 1e-24 are dropped.  The threshold is far below double
   rounding noise on any normalized sum, so pruned residue cannot
   perturb a Born probability, but it is what keeps basis-dominated
   states from accreting dead entries (H then H leaves an exact-zero
   partner). *)

type t = {
  n : int;
  nbits : int;
  mutable reg : int;
  mutable size : int;
  mutable idx : int array;
  mutable re : float array;
  mutable im : float array;
  tbl : (int, int) Hashtbl.t;
}

(* Basis indices are OCaml ints; leave headroom below [Sys.int_size]
   so [1 lsl target] and index bit-ops never overflow. *)
let max_qubits = Sys.int_size - 3
let prune_eps2 = 1e-24
let sq2 = 1. /. sqrt 2.

let create n ~num_bits =
  if n < 0 || n > max_qubits then
    invalid_arg (Printf.sprintf "Sparse.create: %d qubits (max %d)" n max_qubits);
  let idx = Array.make 16 0 in
  let re = Array.make 16 0. in
  let im = Array.make 16 0. in
  re.(0) <- 1.;
  let tbl = Hashtbl.create 64 in
  Hashtbl.replace tbl 0 0;
  { n; nbits = num_bits; reg = 0; size = 1; idx; re; im; tbl }

let num_qubits st = st.n
let num_bits st = st.nbits
let register st = st.reg
let set_bit st k b = st.reg <- Bits.set st.reg k b
let get_bit st k = Bits.get st.reg k
let nnz st = st.size

let copy st =
  {
    st with
    idx = Array.copy st.idx;
    re = Array.copy st.re;
    im = Array.copy st.im;
    tbl = Hashtbl.copy st.tbl;
  }

(* ------------------------------------------------------------------ *)
(* Entry management                                                   *)

let ensure_capacity st =
  if st.size = Array.length st.idx then begin
    let cap = 2 * st.size in
    let idx = Array.make cap 0 in
    let re = Array.make cap 0. in
    let im = Array.make cap 0. in
    Array.blit st.idx 0 idx 0 st.size;
    Array.blit st.re 0 re 0 st.size;
    Array.blit st.im 0 im 0 st.size;
    st.idx <- idx;
    st.re <- re;
    st.im <- im
  end

let add_entry st i r x =
  ensure_capacity st;
  let s = st.size in
  st.idx.(s) <- i;
  st.re.(s) <- r;
  st.im.(s) <- x;
  Hashtbl.replace st.tbl i s;
  st.size <- s + 1

(* Swap-remove: the last entry moves into the vacated slot.  Safe
   inside a downward [size-1 .. 0] sweep — the swapped-in entry came
   from a higher slot, already visited. *)
let remove_slot st s =
  let last = st.size - 1 in
  Hashtbl.remove st.tbl st.idx.(s);
  if s <> last then begin
    st.idx.(s) <- st.idx.(last);
    st.re.(s) <- st.re.(last);
    st.im.(s) <- st.im.(last);
    Hashtbl.replace st.tbl st.idx.(s) s
  end;
  st.size <- last

let prune st =
  let s = ref (st.size - 1) in
  while !s >= 0 do
    let r = st.re.(!s) and x = st.im.(!s) in
    if (r *. r) +. (x *. x) <= prune_eps2 then remove_slot st !s;
    decr s
  done

(* ------------------------------------------------------------------ *)
(* Kernels (mirroring lib/sim/program.ml's dense kernels)             *)

let kx st ~bit ~cmask =
  let changed = ref false in
  for s = 0 to st.size - 1 do
    let i = st.idx.(s) in
    if i land cmask = cmask then begin
      st.idx.(s) <- i lxor bit;
      changed := true
    end
  done;
  if !changed then begin
    Hashtbl.reset st.tbl;
    for s = 0 to st.size - 1 do
      Hashtbl.replace st.tbl st.idx.(s) s
    done
  end

let[@inline] rotate st s zre zim =
  let r = st.re.(s) and x = st.im.(s) in
  st.re.(s) <- (zre *. r) -. (zim *. x);
  st.im.(s) <- (zre *. x) +. (zim *. r)

let kphase st ~bit ~cmask zre zim =
  let set = cmask lor bit in
  for s = 0 to st.size - 1 do
    if st.idx.(s) land set = set then rotate st s zre zim
  done

let kdiag st ~bit ~cmask d0re d0im d1re d1im =
  for s = 0 to st.size - 1 do
    let i = st.idx.(s) in
    if i land cmask = cmask then
      if i land bit = 0 then rotate st s d0re d0im else rotate st s d1re d1im
  done

(* Pair-matched mixing kernel: each control-satisfying (i0, i1) pair
   is processed exactly once.  The |0>-side entry drives the pair when
   present; a lone |1>-side entry (partner structurally absent, i.e.
   amplitude 0) drives it itself.  Entries created mid-sweep land in
   slots >= the sweep bound, so they are never reprocessed. *)
let mix_pairs st ~bit ~cmask f =
  let n0 = st.size in
  for s = 0 to n0 - 1 do
    let i = st.idx.(s) in
    if i land cmask = cmask then
      if i land bit = 0 then begin
        let i1 = i lor bit in
        let r0 = st.re.(s) and x0 = st.im.(s) in
        match Hashtbl.find_opt st.tbl i1 with
        | Some s1 ->
            let r1 = st.re.(s1) and x1 = st.im.(s1) in
            let nr0, nx0, nr1, nx1 = f r0 x0 r1 x1 in
            st.re.(s) <- nr0;
            st.im.(s) <- nx0;
            st.re.(s1) <- nr1;
            st.im.(s1) <- nx1
        | None ->
            let nr0, nx0, nr1, nx1 = f r0 x0 0. 0. in
            st.re.(s) <- nr0;
            st.im.(s) <- nx0;
            if not (nr1 = 0. && nx1 = 0.) then add_entry st i1 nr1 nx1
      end
      else if not (Hashtbl.mem st.tbl (i lxor bit)) then begin
        let r1 = st.re.(s) and x1 = st.im.(s) in
        let nr0, nx0, nr1, nx1 = f 0. 0. r1 x1 in
        st.re.(s) <- nr1;
        st.im.(s) <- nx1;
        if not (nr0 = 0. && nx0 = 0.) then add_entry st (i lxor bit) nr0 nx0
      end
  done;
  prune st

let kh st ~bit ~cmask =
  mix_pairs st ~bit ~cmask (fun r0 x0 r1 x1 ->
      ( (sq2 *. r0) +. (sq2 *. r1),
        (sq2 *. x0) +. (sq2 *. x1),
        (sq2 *. r0) -. (sq2 *. r1),
        (sq2 *. x0) -. (sq2 *. x1) ))

let ku2 st ~bit ~cmask m =
  let m00re = m.(0) and m00im = m.(1) and m01re = m.(2) and m01im = m.(3) in
  let m10re = m.(4) and m10im = m.(5) and m11re = m.(6) and m11im = m.(7) in
  mix_pairs st ~bit ~cmask (fun r0 x0 r1 x1 ->
      ( ((m00re *. r0) -. (m00im *. x0)) +. ((m01re *. r1) -. (m01im *. x1)),
        ((m00re *. x0) +. (m00im *. r0)) +. ((m01re *. x1) +. (m01im *. r1)),
        ((m10re *. r0) -. (m10im *. x0)) +. ((m11re *. r1) -. (m11im *. x1)),
        ((m10re *. x0) +. (m10im *. r0)) +. ((m11re *. x1) +. (m11im *. r1)) ))

(* ------------------------------------------------------------------ *)
(* Observers and collapse                                             *)

let norm2 st =
  let acc = ref 0. in
  for s = 0 to st.size - 1 do
    let r = st.re.(s) and x = st.im.(s) in
    acc := !acc +. ((r *. r) +. (x *. x))
  done;
  !acc

let amplitude st k =
  match Hashtbl.find_opt st.tbl k with
  | Some s -> { Complex.re = st.re.(s); im = st.im.(s) }
  | None -> Complex.zero

let prob_one st q =
  let bit = 1 lsl q in
  let acc = ref 0. in
  for s = 0 to st.size - 1 do
    if st.idx.(s) land bit <> 0 then begin
      let r = st.re.(s) and x = st.im.(s) in
      acc := !acc +. ((r *. r) +. (x *. x))
    end
  done;
  !acc

let project st q outcome =
  let bit = 1 lsl q in
  let p1 = prob_one st q in
  let p = if outcome then p1 else 1. -. p1 in
  if p <= 1e-15 then
    raise (State.Zero_probability_branch { qubit = q; outcome });
  let sc = 1. /. sqrt p in
  let s = ref (st.size - 1) in
  while !s >= 0 do
    if (st.idx.(!s) land bit <> 0) = outcome then begin
      st.re.(!s) <- st.re.(!s) *. sc;
      st.im.(!s) <- st.im.(!s) *. sc
    end
    else remove_slot st !s;
    decr s
  done;
  p

let flip st q = kx st ~bit:(1 lsl q) ~cmask:0

let measure ~random st ~qubit ~bit =
  Obs.incr "sim.sparse.measure";
  let p1 = prob_one st qubit in
  let outcome = random < p1 in
  ignore (project st qubit outcome);
  set_bit st bit outcome;
  outcome

let reset ~random st q =
  Obs.incr "sim.sparse.reset";
  let p1 = prob_one st q in
  let outcome = random < p1 in
  ignore (project st q outcome);
  if outcome then flip st q

(* ------------------------------------------------------------------ *)
(* Program execution                                                  *)

let rec exec_kernel ~random st k =
  match k with
  | Program.Kx { bit; cmask; _ } -> kx st ~bit ~cmask
  | Program.Kh { bit; cmask; _ } -> kh st ~bit ~cmask
  | Program.Kphase { bit; cmask; re1; im1; _ } -> kphase st ~bit ~cmask re1 im1
  | Program.Kdiag { bit; cmask; re0; im0; re1; im1; _ } ->
      kdiag st ~bit ~cmask re0 im0 re1 im1
  | Program.Ku2 { bit; cmask; m; _ } -> ku2 st ~bit ~cmask m
  | Program.Kmeasure { qubit; bit } ->
      ignore (measure ~random:(random ()) st ~qubit ~bit)
  | Program.Kreset q -> reset ~random:(random ()) st q
  | Program.Kcond { mask; value; body } ->
      if st.reg land mask = value then exec_kernel ~random st body

let exec ~random st program =
  let ops = Program.kernels program in
  for k = 0 to Array.length ops - 1 do
    exec_kernel ~random st (Array.unsafe_get ops k)
  done;
  if Obs.enabled () then Obs.incr ~n:(Array.length ops) "sim.sparse.ops"

let apply st k =
  match k with
  | Program.Kmeasure _ | Program.Kreset _ ->
      invalid_arg "Sparse.apply: branching op"
  | Program.Kx _ | Program.Kh _ | Program.Kphase _ | Program.Kdiag _
  | Program.Ku2 _ | Program.Kcond _ ->
      exec_kernel ~random:Program.no_random st k

let run ~rng program =
  let st =
    create (Program.num_qubits program) ~num_bits:(Program.num_bits program)
  in
  exec ~random:(fun () -> Random.State.float rng 1.0) st program;
  st

(* ------------------------------------------------------------------ *)
(* Conversions (the hybrid handoff and the densify escape hatch)      *)

let to_state st =
  let d = State.create st.n ~num_bits:st.nbits in
  let v = State.raw d in
  let re = Linalg.Cvec.re v and im = Linalg.Cvec.im v in
  re.(0) <- 0.;
  for s = 0 to st.size - 1 do
    re.(st.idx.(s)) <- st.re.(s);
    im.(st.idx.(s)) <- st.im.(s)
  done;
  State.set_register d st.reg;
  d

let of_state d =
  let st = create (State.num_qubits d) ~num_bits:(State.num_bits d) in
  st.size <- 0;
  Hashtbl.reset st.tbl;
  let v = State.raw d in
  let re = Linalg.Cvec.re v and im = Linalg.Cvec.im v in
  for k = 0 to Array.length re - 1 do
    if re.(k) <> 0. || im.(k) <> 0. then add_entry st k re.(k) im.(k)
  done;
  st.reg <- State.register d;
  st

let probabilities st =
  if st.n > State.max_qubits then
    raise
      (State.Dense_cap_exceeded
         { qubits = st.n; max_qubits = State.max_qubits });
  let ps = Array.make (1 lsl st.n) 0. in
  for s = 0 to st.size - 1 do
    let r = st.re.(s) and x = st.im.(s) in
    ps.(st.idx.(s)) <- (r *. r) +. (x *. x)
  done;
  ps

let outcome_probabilities st qubits =
  let acc = Hashtbl.create 16 in
  for s = 0 to st.size - 1 do
    let r = st.re.(s) and x = st.im.(s) in
    let p = (r *. r) +. (x *. x) in
    if p > 0. then begin
      let o = Bits.gather st.idx.(s) qubits in
      Hashtbl.replace acc o
        (p +. Option.value ~default:0. (Hashtbl.find_opt acc o))
    end
  done;
  Hashtbl.fold (fun o p pairs -> (o, p) :: pairs) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)

module Sparse_engine : Engine.S with type state = t = struct
  type state = t

  let name = "sparse"
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
  let of_state = of_state
  let to_state = to_state
end
