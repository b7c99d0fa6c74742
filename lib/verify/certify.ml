(* Top-level certification: prove a dynamic circuit equivalent to its
   traditional original without simulating either.

   Both sides are symbolically executed into path sums and normalized
   (Reduce); equivalence of the induced classical channel over the
   shared measurement bits is then decided structurally:

   - the sums are matched up to path-variable renaming
     (Weisfeiler-Leman-style color refinement) and up to a global
     phase that may depend only on the decohered branch data;
   - when matching fails on a small instance, an exact exhaustive
     comparison over the path variables (in Ring, no floats) either
     proves equality or produces a concrete measurement-branch
     counterexample.  Both sides' variable counts are checked against
     the bound before either is enumerated.  Enumeration runs over
     packed assignments: every monomial is a bitmask over the variable
     positions, the paths are partitioned into (branch, basis-state)
     classes one expression at a time, and a class's amplitude is four
     integer counts of ω^0..ω^3 over the common 2^(-scale/2);
   - when the transform recorded scheduling violations (the paper's
     Algorithm 1 is knowingly unsound for interacting data qubits),
     full channel equality is genuinely false; the certifier then
     proves the weaker but still non-trivial {e dynamics} claim: the
     DQC is exactly equivalent to the coherent replay of its own
     instruction stream, i.e. the mid-circuit measure / reset /
     classically-controlled machinery introduces no error beyond the
     recorded schedule deviation. *)

open Circuit
module B = Pathsum.Bexpr
module P = Pathsum.Phase

type scope = Channel | Dynamics

type counterexample = {
  bits : (int * bool) list;
  p_left : float;
  p_right : float;
  detail : string;
}

type proof = {
  scope : scope;
  path_vars : int;
  reductions : int;
  schedule_cex : counterexample option;
}

type verdict = Proved of proof | Refuted of counterexample | Unknown of string

type refutation =
  | Equal
  | Differs of counterexample
  | Inconclusive of string

(* ------------------------------------------------------------------ *)
(* Views: a path sum packaged for comparison over a channel            *)

(* canonical representative of an expression up to negation — an
   observation and its negation pin exactly the same paths *)
let canon e =
  let n = B.not_ e in
  if B.compare e n <= 0 then e else n

type view = {
  v_scale : int;
  v_phase : P.t;
  v_anchors : B.t list;  (* ordered observable expressions *)
  v_ghosts : B.t list;  (* decohered environment, canonical *)
}

(* fold an environment expression into the pool unless it pins nothing
   new (constant, or duplicate of an anchor or pool entry) *)
let add_pool anchors pool e =
  if B.is_const e <> None then pool
  else
    let c = canon e in
    if List.exists (fun a -> B.equal (canon a) c) anchors then pool
    else if List.exists (B.equal c) pool then pool
    else c :: pool

(* channel view: ordered anchors are the shared measurement bits;
   everything else recorded or left on a qubit is traced-out
   environment *)
let view_channel (ps : Pathsum.t) ~shared =
  let anchors =
    List.map
      (fun b ->
        if b < Array.length ps.Pathsum.bits then ps.Pathsum.bits.(b) else None)
      shared
  in
  if List.exists (fun a -> a = None) anchors then None
  else
    let anchors = List.filter_map (fun a -> a) anchors in
    let pool = ref [] in
    Array.iteri
      (fun b e ->
        match e with
        | Some e when not (List.mem b shared) ->
            pool := add_pool anchors !pool e
        | Some _ | None -> ())
      ps.Pathsum.bits;
    List.iter (fun e -> pool := add_pool anchors !pool e) ps.Pathsum.ghosts;
    Array.iter (fun e -> pool := add_pool anchors !pool e) ps.Pathsum.outputs;
    Some
      {
        v_scale = ps.Pathsum.scale;
        v_phase = ps.Pathsum.phase;
        v_anchors = anchors;
        v_ghosts = List.sort B.compare !pool;
      }

let view_vars v =
  List.sort_uniq Int.compare
    (List.concat_map fst (P.terms v.v_phase)
    @ List.concat_map
        (fun e -> List.concat (B.monomials e))
        (v.v_anchors @ v.v_ghosts))

(* ------------------------------------------------------------------ *)
(* Variable matching by color refinement                               *)

(* A view's variables, ascending, and where each occurs: per anchor
   that holds it (with the anchor's index), per ghost, and per phase
   term (with its coefficient), each monomial without the variable
   itself.  A variable is named by its place in [vars], so the tables
   are as long as the view has variables.  Computed once per view;
   every refinement round reads it. *)
type occurrences = {
  vars : int array;
  in_anchors : (int * int list list) list array;
  in_ghosts : int list list list array;
  in_phase : (int * int list) list array;
}

(* the place of [x] in the ascending array [a], or -1 *)
let place a x =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then mid
      else if a.(mid) < x then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length a)

let occurrences v =
  let vars = Array.of_list (view_vars v) in
  let n = Array.length vars in
  let in_anchors = Array.make n []
  and in_ghosts = Array.make n []
  and in_phase = Array.make n [] in
  let places m = List.map (place vars) m in
  let without x m = List.filter (fun y -> y <> x) m in
  (* per variable of [e], the monomials that hold it *)
  let holding e =
    let ms = List.map places (B.monomials e) in
    List.map
      (fun x ->
        ( x,
          List.filter_map
            (fun m -> if List.mem x m then Some (without x m) else None)
            ms ))
      (places (B.vars e))
  in
  List.iteri
    (fun i a ->
      List.iter
        (fun (x, ms) -> in_anchors.(x) <- (i, ms) :: in_anchors.(x))
        (holding a))
    v.v_anchors;
  List.iter
    (fun g ->
      List.iter
        (fun (x, ms) -> in_ghosts.(x) <- ms :: in_ghosts.(x))
        (holding g))
    v.v_ghosts;
  List.iter
    (fun (m, c) ->
      let m = places m in
      List.iter (fun x -> in_phase.(x) <- (c, without x m) :: in_phase.(x)) m)
    (P.terms v.v_phase);
  { vars; in_anchors; in_ghosts; in_phase }

(* A color is interned from a key.  A refined key is the variable's
   color with its occurrences under the current coloring: each
   monomial becomes the sorted colors of its other variables, the
   ghosts (an unordered pool) and the phase terms a sorted multiset. *)
type color_key =
  | Free
  | Refined of
      int
      * (int * int list list) list
      * int list list list
      * (int * int list) list

let signature occ col x =
  let co m = List.sort Int.compare (List.map (fun y -> col.(y)) m) in
  let monos ms = List.sort compare (List.map co ms) in
  Refined
    ( col.(x),
      List.map (fun (i, ms) -> (i, monos ms)) occ.in_anchors.(x),
      List.sort compare (List.map monos occ.in_ghosts.(x)),
      List.sort compare (List.map (fun (c, m) -> (c, co m)) occ.in_phase.(x))
    )

(* match the variables of [vb] to those of [va].  Returns a total
   renaming for [vb]'s variables, or None when the structures cannot
   correspond. *)
let build_rename va vb =
  let occ_a = occurrences va and occ_b = occurrences vb in
  let n = Array.length occ_a.vars in
  if Array.length occ_b.vars <> n then None
  else begin
    (* one table for both sides, so that colors compare across them *)
    let table : (color_key, int) Hashtbl.t = Hashtbl.create 97 in
    let color_of k =
      match Hashtbl.find_opt table k with
      | Some c -> c
      | None ->
          let c = Hashtbl.length table in
          Hashtbl.add table k c;
          c
    in
    let col_a = Array.make n (color_of Free) in
    let col_b = Array.make n (color_of Free) in
    let refine occ col =
      let next = Array.init n (fun i -> color_of (signature occ col i)) in
      Array.blit next 0 col 0 n
    in
    for _round = 1 to 3 do
      (* both sides in the same round so the shared table stays
         aligned *)
      refine occ_a col_a;
      refine occ_b col_b
    done;
    let sorted col =
      List.sort
        (fun i j ->
          if col.(i) <> col.(j) then Int.compare col.(i) col.(j)
          else Int.compare i j)
        (List.init n Fun.id)
    in
    let sa = sorted col_a and sb = sorted col_b in
    if not (List.equal (fun i j -> col_a.(i) = col_b.(j)) sa sb) then None
    else begin
      let target = Array.make n 0 in
      List.iter2 (fun j i -> target.(j) <- occ_a.vars.(i)) sb sa;
      Some
        (fun x ->
          let j = place occ_b.vars x in
          if j < 0 then x else target.(j))
    end
  end

(* ------------------------------------------------------------------ *)
(* Enumeration over packed assignments                                *)

(* An exhaustive check runs over assignment masks: bit i of a mask is
   the value of the i-th variable of a sorted variable list.  A
   monomial compiles to the mask of its variables and holds exactly
   when all of them are set, so a GF(2) polynomial is the parity of
   its holding monomials and a phase polynomial the sum of their
   coefficients mod 8. *)

let positions vars =
  let pos : (int, int) Hashtbl.t = Hashtbl.create 31 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) vars;
  Hashtbl.find pos

let compile_mono pos m =
  List.fold_left (fun acc v -> acc lor (1 lsl pos v)) 0 m

let compile_bexpr pos e =
  Array.of_list (List.map (compile_mono pos) (B.monomials e))

(* plain loops: these run once per path and expression *)
let eval_bexpr monos mask =
  let r = ref false in
  for i = 0 to Array.length monos - 1 do
    let m = monos.(i) in
    if mask land m = m then r := not !r
  done;
  !r

let compile_phase pos p =
  let terms = P.terms p in
  ( Array.of_list (List.map (fun (m, _) -> compile_mono pos m) terms),
    Array.of_list (List.map snd terms) )

let eval_phase (monos, coeffs) mask =
  let k = ref 0 in
  for i = 0 to Array.length monos - 1 do
    let m = monos.(i) in
    if mask land m = m then k := !k + coeffs.(i)
  done;
  !k land 7

(* [classes pos n exprs] partitions the 2^n assignments into the
   classes on which every expression of [exprs] takes one value:
   [cls.(mask)] is the class of [mask], numbered in the order of each
   class's first mask, and [count] the number of classes.  Each
   expression refines the partition in one pass; a constant, or a
   repeat of an earlier expression up to negation, refines nothing and
   is skipped. *)
let classes pos n exprs =
  let size = 1 lsl n in
  let cls = Array.make size 0 in
  let count = ref 1 in
  let seen = ref [] in
  List.iter
    (fun e ->
      let c = canon e in
      if B.is_const e = None && not (List.exists (B.equal c) !seen) then begin
        seen := c :: !seen;
        let monos = compile_bexpr pos e in
        let renum = Array.make (2 * !count) (-1) in
        let next = ref 0 in
        for mask = 0 to size - 1 do
          let key = (2 * cls.(mask)) + Bool.to_int (eval_bexpr monos mask) in
          if renum.(key) < 0 then begin
            renum.(key) <- !next;
            incr next
          end;
          cls.(mask) <- renum.(key)
        done;
        count := !next
      end)
    exprs;
  (cls, !count)

(* ------------------------------------------------------------------ *)
(* Phase comparison                                                   *)

(* The residual phase difference may depend on the decohered branch
   data (anchors and ghosts): paths in distinct branches never
   interfere, so a branch-constant phase offset is unobservable.
   Check that the difference is constant within every branch class. *)
let branch_constant va d =
  let vs =
    List.fold_left
      (fun acc e -> B.union_vars acc (B.vars e))
      (P.vars d)
      (va.v_anchors @ va.v_ghosts)
  in
  let n = List.length vs in
  n <= 16
  && begin
       let pos = positions vs in
       let cls, count = classes pos n (va.v_anchors @ va.v_ghosts) in
       let phase = compile_phase pos d in
       let value = Array.make count (-1) in
       let ok = ref true in
       let mask = ref 0 in
       while !ok && !mask < 1 lsl n do
         let c = cls.(!mask) and k = eval_phase phase !mask in
         if value.(c) < 0 then value.(c) <- k
         else if value.(c) <> k then ok := false;
         incr mask
       done;
       !ok
     end

let phase_ok va phase_b =
  let d = P.add va.v_phase (P.neg phase_b) in
  match P.is_const d with Some _ -> true | None -> branch_constant va d

(* ------------------------------------------------------------------ *)
(* The structural comparator                                          *)

let equate va vb =
  Obs.with_span "verify.compare" (fun () ->
      va.v_scale = vb.v_scale
      && List.length va.v_anchors = List.length vb.v_anchors
      && List.length va.v_ghosts = List.length vb.v_ghosts
      &&
      match build_rename va vb with
      | None -> false
      | Some f ->
          let anchors_b = List.map (B.rename f) vb.v_anchors in
          let ghosts_b =
            List.sort B.compare
              (List.map (fun e -> canon (B.rename f e)) vb.v_ghosts)
          in
          let ghosts_a =
            List.sort B.compare (List.map canon va.v_ghosts)
          in
          List.for_all2 B.equal va.v_anchors anchors_b
          && List.for_all2 B.equal ghosts_a ghosts_b
          && phase_ok va (P.rename f vb.v_phase))

let compare_channel ps_a ps_b ~shared =
  if ps_a.Pathsum.zero_amplitude || ps_b.Pathsum.zero_amplitude then
    ps_a.Pathsum.zero_amplitude && ps_b.Pathsum.zero_amplitude
  else
    match (view_channel ps_a ~shared, view_channel ps_b ~shared) with
    | Some va, Some vb -> equate va vb
    | (Some _ | None), _ -> false

(* ------------------------------------------------------------------ *)
(* Exhaustive exact refutation                                        *)

(* classical outcome distribution over the shared bits, by exhaustive
   path enumeration with exact Ring arithmetic: amplitudes of paths
   with identical (branch data, basis state) interfere; squared norms
   then marginalize over everything but the shared bits.  Every path
   has magnitude 2^(-scale/2) and phase ω^k, and ω^4 = -1, so a class's
   amplitude is four integer counts of ω^0..ω^3 over that one
   denominator.  [None] when a shared bit is never recorded. *)
let distribution (ps : Pathsum.t) ~shared =
  if ps.Pathsum.zero_amplitude then Some (Hashtbl.create 1)
  else if
    List.exists
      (fun b -> b >= Array.length ps.Pathsum.bits || ps.Pathsum.bits.(b) = None)
      shared
  then None
  else begin
    let vars = Pathsum.all_vars ps in
    let n = List.length vars in
    let pos = positions vars in
    let shared_exprs =
      List.map (fun b -> Option.get ps.Pathsum.bits.(b)) shared
    in
    let env_exprs =
      let acc = ref [] in
      Array.iteri
        (fun b e ->
          match e with
          | Some e when not (List.mem b shared) -> acc := e :: !acc
          | Some _ | None -> ())
        ps.Pathsum.bits;
      List.rev !acc @ ps.Pathsum.ghosts @ Array.to_list ps.Pathsum.outputs
    in
    let cls, count = classes pos n (shared_exprs @ env_exprs) in
    let phase = compile_phase pos ps.Pathsum.phase in
    let omegas = Array.make (4 * count) 0 in
    let first = Array.make count (-1) in
    for mask = 0 to (1 lsl n) - 1 do
      let c = cls.(mask) and k = eval_phase phase mask in
      if first.(c) < 0 then first.(c) <- mask;
      let i = (4 * c) + (k land 3) in
      omegas.(i) <- (if k < 4 then omegas.(i) + 1 else omegas.(i) - 1)
    done;
    (* the tables take the classes in the order of their first paths,
       keyed by the expressions' values there: they hold and iterate
       exactly as path-by-path accumulation would build them, so the
       branch a refutation reports does not depend on how the
       amplitudes were summed *)
    let amps : (bool list * bool list, Ring.t) Hashtbl.t =
      Hashtbl.create 256
    in
    Array.iteri
      (fun c mask ->
        let assign v = (mask lsr pos v) land 1 = 1 in
        let key =
          ( List.map (B.eval assign) shared_exprs,
            List.map (B.eval assign) env_exprs )
        in
        let w k = omegas.((4 * c) + k) in
        Hashtbl.replace amps key
          (Ring.div_root2 ps.Pathsum.scale (Ring.make (w 0) (w 1) (w 2) (w 3))))
      first;
    let probs : (bool list, Ring.t) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (beta, _) a ->
        let p = Ring.norm_sq a in
        let prev =
          match Hashtbl.find_opt probs beta with Some q -> q | None -> Ring.zero
        in
        Hashtbl.replace probs beta (Ring.add prev p))
      amps;
    Some probs
  end

(* exhaustive exact comparison of two path sums' outcome channels over
   the shared bits; [Equal] is a proof of channel equality.  Both
   sides' variable counts are checked against [max_vars] before either
   is enumerated. *)
let refute ~max_vars ps_a ps_b ~shared =
  Obs.with_span "verify.refute" (fun () ->
      let fits (ps : Pathsum.t) =
        ps.Pathsum.zero_amplitude
        || List.length (Pathsum.all_vars ps) <= max_vars
      in
      match
        if fits ps_a && fits ps_b then
          (distribution ps_a ~shared, distribution ps_b ~shared)
        else (None, None)
      with
      | Some pa, Some pb ->
          let betas = Hashtbl.create 64 in
          Hashtbl.iter (fun b _ -> Hashtbl.replace betas b ()) pa;
          Hashtbl.iter (fun b _ -> Hashtbl.replace betas b ()) pb;
          let lookup tbl b =
            match Hashtbl.find_opt tbl b with
            | Some r -> r
            | None -> Ring.zero
          in
          let mismatch = ref None in
          Hashtbl.iter
            (fun beta () ->
              if !mismatch = None then begin
                let ra = lookup pa beta and rb = lookup pb beta in
                if not (Ring.equal ra rb) then
                  mismatch := Some (beta, ra, rb)
              end)
            betas;
          (match !mismatch with
          | None -> Equal
          | Some (beta, ra, rb) ->
              Differs
                {
                  bits = List.combine shared beta;
                  p_left = Ring.to_float ra;
                  p_right = Ring.to_float rb;
                  detail =
                    Printf.sprintf
                      "P[%s] = %s on the left vs %s on the right"
                      (String.concat ", "
                         (List.map2
                            (fun b v -> Printf.sprintf "c%d=%d" b
                                          (if v then 1 else 0))
                            shared beta))
                      (Ring.to_string ra) (Ring.to_string rb);
                })
      | (Some _ | None), _ ->
          Inconclusive "too many path variables for exhaustive refutation")

(* ------------------------------------------------------------------ *)
(* Coherent replay of a dynamic instruction stream                    *)

exception Replay_unsupported of string

(* Rebuild, on the traditional qubit layout, the unitary circuit the
   DQC schedule denotes: segment k of the stream (delimited by the
   work-qubit resets) acts on work qubit iteration_order.(k), answer
   operands map back through answer_phys, and classical conditions
   become quantum controls on the (still coherent) source data qubits
   — the deferred-measurement image of the DQC. *)
let build_replay ~data_bit ~answer_phys ~iteration_order (dqc : Circ.t) =
  try
    let inv_answer = List.map (fun (q, phys) -> (phys, q)) answer_phys in
    let inv_bit = List.map (fun (q, b) -> (b, q)) data_bit in
    let order = Array.of_list iteration_order in
    let nq =
      1
      + List.fold_left max 0 (iteration_order @ List.map fst answer_phys)
    in
    let seg = ref 0 in
    let work () =
      if !seg < Array.length order then order.(!seg)
      else raise (Replay_unsupported "more segments than iterations")
    in
    let map_q p =
      if p = 0 then work ()
      else
        match List.assoc_opt p inv_answer with
        | Some q -> q
        | None ->
            raise
              (Replay_unsupported
                 (Printf.sprintf "physical qubit %d is neither work nor answer"
                    p))
    in
    let instrs = ref [] in
    let emit i = instrs := i :: !instrs in
    List.iter
      (fun (i : Instruction.t) ->
        match i with
        | Instruction.Unitary { gate; controls; target } ->
            emit
              (Instruction.Unitary
                 {
                   gate;
                   controls = List.map map_q controls;
                   target = map_q target;
                 })
        | Instruction.Conditioned (cond, { gate; controls; target }) ->
            let tests =
              List.map
                (fun (b, v) ->
                  match List.assoc_opt b inv_bit with
                  | Some q -> (q, v)
                  | None ->
                      raise
                        (Replay_unsupported
                           (Printf.sprintf "condition on non-data bit c%d" b)))
                cond.Instruction.bits
            in
            let falses =
              List.filter_map (fun (q, v) -> if v then None else Some q) tests
            in
            let wrap () =
              List.iter
                (fun q ->
                  emit
                    (Instruction.Unitary
                       { gate = Gate.X; controls = []; target = q }))
                falses
            in
            wrap ();
            emit
              (Instruction.Unitary
                 {
                   gate;
                   controls = List.map map_q controls @ List.map fst tests;
                   target = map_q target;
                 });
            wrap ()
        | Instruction.Measure { qubit = 0; _ } -> ()
        | Instruction.Measure { qubit; _ } ->
            raise
              (Replay_unsupported
                 (Printf.sprintf "measurement of physical qubit %d" qubit))
        | Instruction.Reset 0 -> incr seg
        | Instruction.Reset q ->
            raise
              (Replay_unsupported (Printf.sprintf "reset of physical qubit %d" q))
        | Instruction.Barrier _ -> ())
      (Circ.instructions dqc);
    let roles =
      Array.init nq (fun q ->
          if List.exists (fun (a, _) -> a = q) answer_phys then Circ.Answer
          else Circ.Data)
    in
    Ok (Circ.create ~roles ~num_bits:(Circ.num_bits dqc) (List.rev !instrs))
  with
  | Replay_unsupported msg -> Error msg
  | Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* General channel certification of two measured circuits            *)

let measured_bits c =
  List.filter_map
    (function
      | Instruction.Measure { bit; _ } -> Some bit
      | Instruction.Unitary _ | Instruction.Reset _
      | Instruction.Conditioned _ | Instruction.Barrier _ ->
          None)
    (Circ.instructions c)
  |> List.sort_uniq compare

let count_verdict = function
  | Proved _ -> Obs.incr "verify.proved"
  | Refuted _ -> Obs.incr "verify.refuted"
  | Unknown _ -> Obs.incr "verify.unknown"

(* exhaustive refutation enumerates at most 2^14 paths per side *)
let max_refute_vars = 14

let check_channel ?(max_refute_vars = max_refute_vars) a b =
  Obs.with_span "verify.certify" ~attrs:[ ("method", "channel") ] (fun () ->
      let verdict =
        try
          let ba = measured_bits a and bb = measured_bits b in
          let shared = List.filter (fun x -> List.mem x bb) ba in
          if shared = [] then Unknown "no bit is measured on both sides"
          else begin
            let ps_a, st_a = Reduce.normalize (Symexec.run a) in
            let ps_b, st_b = Reduce.normalize (Symexec.run b) in
            let path_vars =
              List.length (Pathsum.all_vars ps_a)
              + List.length (Pathsum.all_vars ps_b)
            in
            Obs.incr ~n:path_vars "verify.path_vars";
            let reductions = Reduce.total st_a + Reduce.total st_b in
            let proved () =
              Proved
                { scope = Channel; path_vars; reductions; schedule_cex = None }
            in
            if compare_channel ps_a ps_b ~shared then proved ()
            else
              match refute ~max_vars:max_refute_vars ps_a ps_b ~shared with
              | Equal -> proved ()
              | Differs cex -> Refuted cex
              | Inconclusive msg -> Unknown msg
          end
        with Symexec.Unsupported msg ->
          Unknown (Printf.sprintf "outside the exact gate fragment: %s" msg)
      in
      count_verdict verdict;
      verdict)

(* ------------------------------------------------------------------ *)
(* Certification of a transform result                                *)

let certify ~traditional ~data_bit ~answer_phys ~iteration_order ~violations
    (dqc : Circ.t) =
  Obs.with_span "verify.certify" (fun () ->
      let verdict =
        try
          let num_data = List.length data_bit in
          let nq_orig = Circ.num_qubits traditional in
          let shared =
            List.filter_map
              (fun (q, b) -> if q < nq_orig then Some b else None)
              data_bit
            @ List.mapi (fun k (_ : int * int) -> num_data + k) answer_phys
          in
          let trad_measures =
            List.filter (fun (q, _) -> q < nq_orig) data_bit
            @ List.mapi (fun k (q, _) -> (q, num_data + k)) answer_phys
          in
          let dyn_measures =
            List.mapi (fun k (_, phys) -> (phys, num_data + k)) answer_phys
          in
          let t_ps, t_st =
            Reduce.normalize (Symexec.run ~measures:trad_measures traditional)
          in
          let d_ps, d_st =
            Reduce.normalize (Symexec.run ~measures:dyn_measures dqc)
          in
          let path_vars =
            List.length (Pathsum.all_vars t_ps)
            + List.length (Pathsum.all_vars d_ps)
          in
          Obs.incr ~n:path_vars "verify.path_vars";
          let reductions = Reduce.total t_st + Reduce.total d_st in
          let proved scope schedule_cex =
            Proved { scope; path_vars; reductions; schedule_cex }
          in
          (* the coherent-replay route: prove the DQC equal to the
             deferred-measurement image of its own schedule, then try
             to relate that schedule to the traditional circuit *)
          let replay_route () =
            match build_replay ~data_bit ~answer_phys ~iteration_order dqc with
            | Error msg -> Unknown (Printf.sprintf "replay failed: %s" msg)
            | Ok replay ->
                let shared_all =
                  List.map snd data_bit
                  @ List.mapi (fun k (_ : int * int) -> num_data + k)
                      answer_phys
                in
                let replay_measures =
                  data_bit
                  @ List.mapi (fun k (q, _) -> (q, num_data + k)) answer_phys
                in
                let r_ps, _ =
                  Reduce.normalize
                    (Symexec.run ~measures:replay_measures replay)
                in
                let against_traditional () =
                  if compare_channel t_ps r_ps ~shared then
                    proved Channel None
                  else
                    match
                      refute ~max_vars:max_refute_vars t_ps r_ps ~shared
                    with
                    | Equal -> proved Channel None
                    | Differs cex -> proved Dynamics (Some cex)
                    | Inconclusive _ -> proved Dynamics None
                in
                if compare_channel d_ps r_ps ~shared:shared_all then
                  against_traditional ()
                else (
                  match
                    refute ~max_vars:max_refute_vars d_ps r_ps
                      ~shared:shared_all
                  with
                  | Differs cex -> Refuted cex
                  | Equal -> against_traditional ()
                  | Inconclusive msg ->
                      Unknown
                        (Printf.sprintf
                           "replay comparison inconclusive: %s" msg))
          in
          if compare_channel t_ps d_ps ~shared then proved Channel None
          else if violations = 0 then
            (* the transform claims exactness: any difference is a
               genuine bug, so exhaust before falling back *)
            match refute ~max_vars:max_refute_vars t_ps d_ps ~shared with
            | Differs cex -> Refuted cex
            | Equal -> proved Channel None
            | Inconclusive _ -> replay_route ()
          else replay_route ()
        with Symexec.Unsupported msg ->
          Unknown (Printf.sprintf "outside the exact gate fragment: %s" msg)
      in
      count_verdict verdict;
      verdict)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)

let scope_to_string = function
  | Channel -> "channel"
  | Dynamics -> "dynamics"

let pp_verdict fmt = function
  | Proved { scope; path_vars; reductions; schedule_cex } ->
      Format.fprintf fmt "proved (%s scope, %d path vars, %d reductions%s)"
        (scope_to_string scope) path_vars reductions
        (match schedule_cex with
        | Some _ -> ", schedule deviation witnessed"
        | None -> "")
  | Refuted cex ->
      Format.fprintf fmt "REFUTED: %s (P=%.6f vs P=%.6f)" cex.detail
        cex.p_left cex.p_right
  | Unknown msg -> Format.fprintf fmt "unknown: %s" msg

let verdict_to_string v = Format.asprintf "%a" pp_verdict v

let is_proved = function Proved _ -> true | Refuted _ | Unknown _ -> false
