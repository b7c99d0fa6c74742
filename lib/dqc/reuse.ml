open Circuit

type report = {
  qubits_before : int;
  qubits_after : int;
  chains : (int * int list) list;
  resets_inserted : int;
  resets_pruned : int;
}

let saved r = r.qubits_before - r.qubits_after

let unchanged_report nq =
  {
    qubits_before = nq;
    qubits_after = nq;
    chains = [];
    resets_inserted = 0;
    resets_pruned = 0;
  }

(* Dependency DAG: an edge i -> j (i earlier in program order) exactly
   when the two instructions share a qubit or a classical bit and the
   commutation oracle cannot prove them interchangeable.  Every linear
   extension is then reachable from the original order by adjacent
   commuting swaps, so any schedule over this DAG denotes the same
   channel. *)
let dependencies instrs =
  let m = Array.length instrs in
  let qubits_of =
    Array.map
      (fun i -> List.sort_uniq compare (Instruction.qubits i))
      instrs
  in
  let bits_of =
    Array.map (fun i -> List.sort_uniq compare (Instruction.bits i)) instrs
  in
  let preds = Array.make m 0 in
  let succs = Array.make m [] in
  let commute = Commute.memo () in
  for j = 1 to m - 1 do
    for i = 0 to j - 1 do
      let share =
        List.exists (fun q -> List.mem q qubits_of.(j)) qubits_of.(i)
        || List.exists (fun b -> List.mem b bits_of.(j)) bits_of.(i)
      in
      if share && not (Commute.instrs commute instrs.(i) instrs.(j)) then begin
        succs.(i) <- j :: succs.(i);
        preds.(j) <- preds.(j) + 1
      end
    done
  done;
  (qubits_of, preds, succs)

let role_rank = function
  | Circ.Data -> 2
  | Circ.Answer -> 1
  | Circ.Ancilla -> 0

let rewire c =
  Obs.with_span "dqc.reuse"
    ~attrs:[ ("qubits", string_of_int (Circ.num_qubits c)) ]
    (fun () ->
      let instrs = Array.of_list (Circ.instructions c) in
      let m = Array.length instrs in
      let nq = Circ.num_qubits c in
      if m = 0 then (c, unchanged_report nq)
      else begin
        let qubits_of, preds, succs = dependencies instrs in
        (* per qubit, the instructions still to schedule that touch it *)
        let remaining = Array.make nq 0 in
        Array.iter
          (List.iter (fun q -> remaining.(q) <- remaining.(q) + 1))
          qubits_of;
        let wire_of = Array.make nq (-1) in
        let free = ref [] in
        let next_wire = ref 0 in
        let hosted : (int, int list) Hashtbl.t = Hashtbl.create 16 in
        let out = ref [] in
        let resets = ref 0 in
        let scheduled = Array.make m false in
        let emitted = ref 0 in
        let activation_cost i =
          List.length (List.filter (fun q -> wire_of.(q) < 0) qubits_of.(i))
        in
        while !emitted < m do
          (* lazy-allocation list scheduling: among ready instructions
             pick the one activating the fewest new qubits, breaking
             ties by program index — deterministic, and it drains every
             operation of the live qubits before widening the frontier,
             which is what retires wires early *)
          let best = ref (-1) and best_cost = ref max_int in
          for i = 0 to m - 1 do
            if (not scheduled.(i)) && preds.(i) = 0 then begin
              let cost = activation_cost i in
              if cost < !best_cost then begin
                best := i;
                best_cost := cost
              end
            end
          done;
          let i = !best in
          assert (i >= 0);
          List.iter
            (fun q ->
              if wire_of.(q) < 0 then begin
                let w =
                  match !free with
                  | w :: rest ->
                      (* re-host on the lowest retired wire, behind a
                         fresh reset *)
                      free := rest;
                      incr resets;
                      out := Instruction.Reset w :: !out;
                      w
                  | [] ->
                      let w = !next_wire in
                      incr next_wire;
                      w
                in
                wire_of.(q) <- w;
                let prev =
                  match Hashtbl.find_opt hosted w with
                  | Some qs -> qs
                  | None -> []
                in
                Hashtbl.replace hosted w (q :: prev)
              end)
            qubits_of.(i);
          out := Instruction.map_qubits (fun q -> wire_of.(q)) instrs.(i) :: !out;
          scheduled.(i) <- true;
          incr emitted;
          List.iter (fun j -> preds.(j) <- preds.(j) - 1) succs.(i);
          List.iter
            (fun q ->
              remaining.(q) <- remaining.(q) - 1;
              if remaining.(q) = 0 then
                free := List.sort compare (wire_of.(q) :: !free))
            qubits_of.(i)
        done;
        let chains =
          Hashtbl.fold (fun w qs acc -> (w, List.rev qs) :: acc) hosted []
          |> List.filter (fun (_, qs) -> List.length qs >= 2)
          |> List.sort compare
        in
        if chains = [] then (c, unchanged_report nq)
        else begin
          let nw = !next_wire in
          let roles = Array.make nw Circ.Ancilla in
          (* a wire carries the strongest role among its hosts:
             Data > Answer > Ancilla *)
          Array.iteri
            (fun q w ->
              if w >= 0 then begin
                let r = Circ.role c q in
                if role_rank r > role_rank roles.(w) then roles.(w) <- r
              end)
            wire_of;
          let circuit =
            Circ.create ~roles ~num_bits:(Circ.num_bits c) (List.rev !out)
          in
          Obs.incr ~n:(nq - nw) "dqc.reuse.qubits_saved";
          Obs.incr ~n:!resets "dqc.reuse.resets";
          ( circuit,
            {
              qubits_before = nq;
              qubits_after = nw;
              chains;
              resets_inserted = !resets;
              resets_pruned = 0;
            } )
        end
      end)

let prune_resets c =
  let keep = ref [] in
  let pruned = ref 0 in
  Lint.Trace.iteri
    (fun _ ~pre instr ->
      match instr with
      | Instruction.Reset q when Lint.Deadness.provably_zero pre q ->
          incr pruned
      | Instruction.Reset _ | Instruction.Unitary _
      | Instruction.Conditioned _ | Instruction.Measure _
      | Instruction.Barrier _ ->
          keep := instr :: !keep)
    (Lint.Trace.run c);
  if !pruned = 0 then (c, 0)
  else
    ( Circ.create ~roles:(Circ.roles c) ~num_bits:(Circ.num_bits c)
        (List.rev !keep),
      !pruned )

let pp_report fmt r =
  Format.fprintf fmt "@[<v>qubits: %d -> %d (%d saved)@,resets: +%d, -%d pruned"
    r.qubits_before r.qubits_after (saved r) r.resets_inserted r.resets_pruned;
  List.iter
    (fun (w, qs) ->
      Format.fprintf fmt "@,wire %d hosts qubits %s" w
        (String.concat ", " (List.map string_of_int qs)))
    r.chains;
  Format.fprintf fmt "@]"

let report_to_string r = Format.asprintf "%a" pp_report r
