open Circuit
module Trace = Lint.Trace
module State = Lint.State
module Deadness = Lint.Deadness

exception Refuted of string

type stats = {
  gates_removed : int;
  uncomputes_removed : int;
  resets_removed : int;
  measures_removed : int;
  conds_resolved : int;
  controls_dropped : int;
  wires_removed : int;
}

let zero =
  {
    gates_removed = 0;
    uncomputes_removed = 0;
    resets_removed = 0;
    measures_removed = 0;
    conds_resolved = 0;
    controls_dropped = 0;
    wires_removed = 0;
  }

let add a b =
  {
    gates_removed = a.gates_removed + b.gates_removed;
    uncomputes_removed = a.uncomputes_removed + b.uncomputes_removed;
    resets_removed = a.resets_removed + b.resets_removed;
    measures_removed = a.measures_removed + b.measures_removed;
    conds_resolved = a.conds_resolved + b.conds_resolved;
    controls_dropped = a.controls_dropped + b.controls_dropped;
    wires_removed = a.wires_removed + b.wires_removed;
  }

let removed s =
  s.gates_removed + s.uncomputes_removed + s.resets_removed
  + s.measures_removed
let changed s = s <> zero

type rewrite = { circuit : Circ.t; stats : stats; reverted : bool }

(* ------------------------------------------------------------------ *)
(* Sweeps: one pass over the trace, collecting the kept instructions.
   Every rewrite below preserves the concrete semantics of the
   original circuit branch-for-branch, so facts read from the input
   trace stay valid for every instruction kept in the same sweep.     *)

(* fold: constant-measurement folding and feed-forward resolution.
   Two phases: conditions are resolved first, then a provably-no-op
   measurement is deleted only when no kept instruction still reads
   its bit afterwards — otherwise the deletion would leave a
   condition reading an unwritten bit, which the lint gate rejects
   even though the runtime value is unchanged. *)
let fold_sweep trace =
  let stats = ref zero in
  let kept = ref [] in
  Trace.iteri
    (fun i ~pre (instr : Instruction.t) ->
      match instr with
      | Conditioned (cond, a) -> (
          match State.cond_status pre cond with
          | State.Holds ->
              stats :=
                { !stats with conds_resolved = !stats.conds_resolved + 1 };
              kept := (i, Instruction.Unitary a) :: !kept
          | State.Fails ->
              stats :=
                { !stats with gates_removed = !stats.gates_removed + 1 }
          | State.Unknown -> kept := (i, instr) :: !kept)
      | Unitary _ | Measure _ | Reset _ | Barrier _ ->
          kept := (i, instr) :: !kept)
    trace;
  let kept = List.rev !kept in
  let last_read = Array.make (Circ.num_bits (Trace.circuit trace)) (-1) in
  List.iter
    (fun (i, (instr : Instruction.t)) ->
      match instr with
      | Conditioned (cond, _) ->
          List.iter
            (fun (b, _) -> last_read.(b) <- max last_read.(b) i)
            cond.Instruction.bits
      | Unitary _ | Measure _ | Reset _ | Barrier _ -> ())
    kept;
  (* a measurement is deletable only when the qubit provably reads
     |v> (the measurement does not disturb it), the bit already holds
     v at runtime (the classical write is a no-op), and the bit is
     never read again *)
  let deletable i qubit bit =
    let pre = Trace.pre trace i in
    match Deadness.qubit_value pre qubit with
    | Some v -> Deadness.bit_value pre bit = Some v && last_read.(bit) < i
    | None -> false
  in
  let measures, delete =
    List.fold_left
      (fun (m, d) (i, (instr : Instruction.t)) ->
        match instr with
        | Measure { qubit; bit } ->
            (m + 1, if deletable i qubit bit then i :: d else d)
        | Unitary _ | Conditioned _ | Reset _ | Barrier _ -> (m, d))
      (0, []) kept
  in
  (* never delete the last measurement: the channel certificate is
     over the bits measured on both sides, so an empty remainder
     would leave the rewrite with nothing to certify *)
  let delete =
    if measures > 0 && List.length delete = measures then List.tl delete
    else delete
  in
  let instrs =
    List.filter_map
      (fun (i, (instr : Instruction.t)) ->
        if List.mem i delete then begin
          stats :=
            { !stats with measures_removed = !stats.measures_removed + 1 };
          None
        end
        else Some instr)
      kept
  in
  (instrs, !stats)

(* dce: backward observability-liveness (dead unitaries, dead
   classically-conditioned uncomputations, dead resets), forward
   redundant resets, then dead wires *)
let dce_sweep trace =
  let c = Trace.circuit trace in
  let dead = Deadness.of_trace trace in
  let dead_set = Deadness.dead_set dead in
  let stats = ref zero in
  let keep = ref [] in
  (* The two rule families must not justify each other: a backward
     removal is observationally dead but not a state no-op, so the
     forward facts of everything after it (which may flow through
     relational rows into any wire) are no longer grounded.  A
     forward redundant-reset fact is therefore trusted only before
     the first backward removal; the fixpoint round re-derives the
     rest from a fresh trace.  Forward removals are exact no-ops and
     invalidate nothing. *)
  let dirty = ref false in
  Trace.iteri
    (fun i ~pre:_ (instr : Instruction.t) ->
      if dead_set.(i) then begin
        dirty := true;
        match instr with
        | Instruction.Unitary _ ->
            stats := { !stats with gates_removed = !stats.gates_removed + 1 }
        | Instruction.Conditioned _ ->
            stats :=
              { !stats with uncomputes_removed = !stats.uncomputes_removed + 1 }
        | Instruction.Reset _ ->
            stats := { !stats with resets_removed = !stats.resets_removed + 1 }
        | Instruction.Measure _ | Instruction.Barrier _ ->
            (* dead_set never marks these *)
            keep := instr :: !keep
      end
      else
        match instr with
        | Instruction.Reset _
          when (not !dirty) && Deadness.redundant_reset dead i ->
            stats := { !stats with resets_removed = !stats.resets_removed + 1 }
        | Instruction.Reset _ | Instruction.Unitary _
        | Instruction.Conditioned _ | Instruction.Measure _
        | Instruction.Barrier _ ->
            keep := instr :: !keep)
    trace;
  let instrs = List.rev !keep in
  (* a wire is live when an effectful instruction references it;
     barriers keep nothing alive *)
  let live = Array.make (Circ.num_qubits c) false in
  List.iter
    (fun (instr : Instruction.t) ->
      match instr with
      | Barrier _ -> ()
      | Unitary _ | Conditioned _ | Measure _ | Reset _ ->
          List.iter (fun q -> live.(q) <- true) (Instruction.qubits instr))
    instrs;
  if not (Array.exists (fun l -> l) live) then live.(0) <- true;
  let dropped = Array.length live - Array.fold_left
                  (fun n l -> if l then n + 1 else n) 0 live in
  let instrs =
    if dropped = 0 then instrs
    else begin
      stats := { !stats with wires_removed = dropped };
      let index = Array.make (Array.length live) (-1) in
      let next = ref 0 in
      Array.iteri
        (fun q l ->
          if l then begin
            index.(q) <- !next;
            incr next
          end)
        live;
      List.map
        (fun (instr : Instruction.t) ->
          match instr with
          | Barrier qs ->
              Instruction.Barrier
                (List.filter_map
                   (fun q -> if live.(q) then Some index.(q) else None)
                   qs)
          | Unitary _ | Conditioned _ | Measure _ | Reset _ ->
              Instruction.map_qubits (fun q -> index.(q)) instr)
        instrs
    end
  in
  let roles =
    if dropped = 0 then Circ.roles c
    else begin
      let kept = ref [] in
      Array.iteri
        (fun q role -> if live.(q) then kept := role :: !kept)
        (Circ.roles c);
      Array.of_list (List.rev !kept)
    end
  in
  let c' =
    if changed !stats then
      Circ.create ~roles ~num_bits:(Circ.num_bits c) instrs
    else c
  in
  (c', !stats)

(* affine: constant-control simplification from the relational rows *)
let affine_sweep trace =
  let stats = ref zero in
  let keep = ref [] in
  Trace.iteri
    (fun _ ~pre (instr : Instruction.t) ->
      let simplify (a : Instruction.app) =
        match Deadness.simplify_app pre a with
        | None ->
            stats := { !stats with gates_removed = !stats.gates_removed + 1 };
            None
        | Some a' ->
            let d = List.length a.controls - List.length a'.controls in
            if d > 0 then
              stats :=
                { !stats with controls_dropped = !stats.controls_dropped + d };
            Some a'
      in
      match instr with
      | Unitary a -> (
          match simplify a with
          | None -> ()
          | Some a' -> keep := Instruction.Unitary a' :: !keep)
      | Conditioned (cond, a) -> (
          match simplify a with
          | None -> ()
          | Some a' -> keep := Instruction.Conditioned (cond, a') :: !keep)
      | Measure _ | Reset _ | Barrier _ -> keep := instr :: !keep)
    trace;
  (List.rev !keep, !stats)

(* ------------------------------------------------------------------ *)
(* Certification: a changed sweep is accepted only with a symbolic
   [Proved]; [Unknown] reverts (never a sampled fallback); [Refuted]
   aborts compilation.                                                *)

let flight family verdict (s : stats) before after =
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"optimize.rewrite"
      [
        ("family", Obs.Json.String family);
        ("verdict", Obs.Json.String verdict);
        ("gates_removed", Obs.Json.Int s.gates_removed);
        ("uncomputes_removed", Obs.Json.Int s.uncomputes_removed);
        ("resets_removed", Obs.Json.Int s.resets_removed);
        ("measures_removed", Obs.Json.Int s.measures_removed);
        ("conds_resolved", Obs.Json.Int s.conds_resolved);
        ("controls_dropped", Obs.Json.Int s.controls_dropped);
        ("wires_removed", Obs.Json.Int s.wires_removed);
        ("gates_before", Obs.Json.Int (Metrics.gate_count before));
        ("gates_after", Obs.Json.Int (Metrics.gate_count after));
        ("depth_before", Obs.Json.Int (Metrics.dynamic_depth before));
        ("depth_after", Obs.Json.Int (Metrics.dynamic_depth after));
      ]

let bump (s : stats) =
  if Obs.enabled () then begin
    if s.gates_removed + s.uncomputes_removed > 0 then
      Obs.incr
        ~n:(s.gates_removed + s.uncomputes_removed)
        "optimize.removed.gates";
    if s.resets_removed > 0 then
      Obs.incr ~n:s.resets_removed "optimize.removed.resets";
    if s.measures_removed > 0 then
      Obs.incr ~n:s.measures_removed "optimize.removed.measures"
  end

let certified ~family before (after, stats) =
  if not (changed stats) then { circuit = before; stats = zero; reverted = false }
  else
    match Verify.Certify.check_channel before after with
    | Verify.Certify.Proved _ ->
        bump stats;
        flight family "proved" stats before after;
        { circuit = after; stats; reverted = false }
    | Verify.Certify.Refuted cex ->
        flight family "refuted" stats before after;
        raise
          (Refuted
             (Printf.sprintf "optimize.%s: certifier refuted the rewrite: %s"
                family cex.Verify.Certify.detail))
    | Verify.Certify.Unknown _ ->
        flight family "reverted" stats before after;
        { circuit = before; stats = zero; reverted = true }

let sweep ~family ~run trace =
  Obs.with_span ("optimize." ^ family) (fun () ->
      let c = Trace.circuit trace in
      let instrs, stats = run trace in
      let after =
        if changed stats then
          Circ.create ~roles:(Circ.roles c) ~num_bits:(Circ.num_bits c) instrs
        else c
      in
      certified ~family c (after, stats))

let fold trace = sweep ~family:"fold" ~run:fold_sweep trace
let affine trace = sweep ~family:"affine" ~run:affine_sweep trace

let dce trace =
  Obs.with_span "optimize.dce" (fun () ->
      certified ~family:"dce" (Trace.circuit trace) (dce_sweep trace))

(* ------------------------------------------------------------------ *)

type result = {
  before : Circ.t;
  after : Circ.t;
  total : stats;
  sweeps : int;
  proved : bool;
}

let run ?(max_sweeps = 4) c =
  Obs.with_span "optimize.run" (fun () ->
      let total = ref zero in
      let proved = ref true in
      let current = ref c in
      let rounds = ref 0 in
      let continue = ref true in
      (* a sweep that returned its input hands its trace on *)
      let trace_of r t =
        if r.circuit == Trace.circuit t then t else Trace.run r.circuit
      in
      while !continue && !rounds < max_sweeps do
        incr rounds;
        let t1 = Trace.run !current in
        let r1 = fold t1 in
        let t2 = trace_of r1 t1 in
        let r2 = dce t2 in
        let r3 = affine (trace_of r2 t2) in
        let round_stats = add r1.stats (add r2.stats r3.stats) in
        if r1.reverted || r2.reverted || r3.reverted then proved := false;
        total := add !total round_stats;
        current := r3.circuit;
        continue := changed round_stats
      done;
      { before = c; after = !current; total = !total; sweeps = !rounds;
        proved = !proved })

let pp_stats fmt s =
  Format.fprintf fmt
    "%d gate%s, %d uncompute%s, %d reset%s, %d measure%s removed; \
     %d condition%s resolved, %d control%s dropped, %d wire%s freed"
    s.gates_removed
    (if s.gates_removed = 1 then "" else "s")
    s.uncomputes_removed
    (if s.uncomputes_removed = 1 then "" else "s")
    s.resets_removed
    (if s.resets_removed = 1 then "" else "s")
    s.measures_removed
    (if s.measures_removed = 1 then "" else "s")
    s.conds_resolved
    (if s.conds_resolved = 1 then "" else "s")
    s.controls_dropped
    (if s.controls_dropped = 1 then "" else "s")
    s.wires_removed
    (if s.wires_removed = 1 then "" else "s")

let stats_to_string s = Format.asprintf "%a" pp_stats s
