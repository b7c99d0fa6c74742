open Circuit

exception Not_transformable of string

type violation = {
  iteration : int;
  emitted : Instruction.t;
  jumped_over : Instruction.t list;
}

type result = {
  circuit : Circ.t;
  data_bit : (int * int) list;
  answer_phys : (int * int) list;
  iteration_order : int list;
  violations : violation list;
  slots : int;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Not_transformable s)) fmt

let check_input ~mct c =
  List.iter
    (fun (i : Instruction.t) ->
      match i with
      | Unitary { controls = [] | [ _ ]; _ } -> ()
      | Unitary _ ->
          if not mct then
            fail
              "multi-control gate %s: decompose it first \
               (Pass.substitute_toffoli) or pass ~mct:true for the direct \
               dynamic MCT realization"
              (Instruction.to_string i)
      | Conditioned _ | Measure _ | Reset _ ->
          fail "input must be a traditional (measurement-free) circuit, got %s"
            (Instruction.to_string i)
      | Barrier _ -> ())
    (Circ.instructions c)

(* the qubits that take an iteration: data and ancilla *)
let work_qubits c =
  List.filter
    (fun q -> Circ.role c q <> Circ.Answer)
    (List.init (Circ.num_qubits c) Fun.id)

let transform ?(mode = `Algorithm1) ?(mct = false) ?(slots = 1) c =
  if slots < 1 then invalid_arg "Transform.transform: slots < 1";
  check_input ~mct c;
  let work = work_qubits c in
  let order =
    (* with two or more slots a cyclic digraph may still schedule:
       iterate in qubit order and let the scheduler decide *)
    match Interaction.iteration_order c with
    | o -> o
    | exception Interaction.Cyclic _ when slots >= 2 -> work
  in
  let answers = Circ.qubits_with_role c Circ.Answer in
  let data = Circ.qubits_with_role c Circ.Data in
  if data = [] then fail "circuit has no data qubits";
  let slots = min slots (List.length work) in
  let nq = Circ.num_qubits c in
  (* input qubit -> DQC qubit while live (answers always, a work qubit
     while it holds a slot), else -1 *)
  let phys = Array.make nq (-1) in
  List.iteri (fun k q -> phys.(q) <- slots + k) answers;
  (* data qubit -> its register bit; measured.(q) is set once it is *)
  let bit_of = Array.make nq (-1) in
  List.iteri (fun k q -> bit_of.(q) <- k) data;
  let measured = Array.make nq (-1) in
  (* pending gates keep their input position for violation reporting;
     barriers are dropped and [check_input] admits nothing else *)
  let gates =
    Array.of_list
      (List.filter
         (fun (i : Instruction.t) ->
           match i with
           | Unitary _ -> true
           | Barrier _ | Conditioned _ | Measure _ | Reset _ -> false)
         (Circ.instructions c))
  in
  let emitted = Array.make (Array.length gates) false in
  let roles_out =
    Array.append (Array.make slots Circ.Data)
      (Array.of_list (List.map (fun _ -> Circ.Answer) answers))
  in
  let out =
    Circ.Builder.make ~roles:roles_out ~num_bits:(List.length data) ()
  in
  let violations = ref [] in
  (* Eligibility of a pending gate under the current live set: the
     mapped output instruction, or [None] when it must wait.  The rule
     is uniform in the number of controls, which gives the direct
     dynamic MCT realization (the paper's future work): live controls
     stay quantum, measured ones join a conjunctive classical
     condition, and the gate waits while any control is pending. *)
  let pending q = phys.(q) < 0 && measured.(q) < 0 in
  let quantum q = if phys.(q) >= 0 then Some phys.(q) else None in
  let classical q = if phys.(q) < 0 then Some measured.(q) else None in
  let eligible (i : Instruction.t) : Instruction.t option =
    match i with
    | Unitary { gate; controls; target } ->
        if phys.(target) < 0 then
          if measured.(target) >= 0 then
            fail "gate %s targets already-measured qubit q%d"
              (Instruction.to_string i) target
          else None
        else if List.exists pending controls then None
        else begin
          let app =
            Instruction.app
              ~controls:(List.filter_map quantum controls)
              gate phys.(target)
          in
          match List.filter_map classical controls with
          | [] -> Some (Instruction.Unitary app)
          | bits ->
              Some (Instruction.Conditioned (Instruction.cond_all bits, app))
        end
    | Barrier _ | Conditioned _ | Measure _ | Reset _ ->
        (* not in [gates] *)
        assert false
  in
  let commute = Commute.memo () in
  let non_commuting_before pos =
    let acc = ref [] in
    for k = pos - 1 downto 0 do
      if (not emitted.(k)) && not (Commute.instrs commute gates.(k) gates.(pos))
      then
        acc := gates.(k) :: !acc
    done;
    !acc
  in
  let greedy iter_idx =
    let progress = ref true in
    while !progress do
      progress := false;
      for pos = 0 to Array.length gates - 1 do
        if not emitted.(pos) then
          match eligible gates.(pos) with
          | None -> ()
          | Some mapped -> (
              let emit () =
                Circ.Builder.add out mapped;
                emitted.(pos) <- true;
                progress := true
              in
              match (mode, non_commuting_before pos) with
              | _, [] -> emit ()
              | `Algorithm1, blockers ->
                  violations :=
                    {
                      iteration = iter_idx;
                      emitted = gates.(pos);
                      jumped_over = blockers;
                    }
                    :: !violations;
                  emit ()
              | `Sound, _ -> (* wait for the blockers to clear *) ())
      done
    done
  in
  (* a data qubit leaving its slot is measured into its bit; an ancilla
     is simply dropped, and any later gate on it can never schedule *)
  let measure_out q =
    if bit_of.(q) >= 0 then begin
      Circ.Builder.measure out ~qubit:phys.(q) ~bit:bit_of.(q);
      measured.(q) <- bit_of.(q)
    end;
    phys.(q) <- -1
  in
  (* slot -> hosted work qubit; the k most recent work qubits are live *)
  let host = Array.make slots (-1) in
  List.iteri
    (fun iter_idx q ->
      let s = iter_idx mod slots in
      if host.(s) >= 0 then begin
        measure_out host.(s);
        Circ.Builder.reset out s
      end;
      host.(s) <- q;
      phys.(q) <- s;
      greedy iter_idx)
    order;
  Array.iter (fun q -> if q >= 0 then measure_out q) host;
  (match Array.find_index not emitted with
  | None -> ()
  | Some k ->
      fail "gate %s could not be scheduled%s"
        (Instruction.to_string gates.(k))
        (match mode with
        | `Sound -> " soundly (a non-commuting pending gate blocks it)"
        | `Algorithm1 -> ""));
  {
    circuit = Circ.Builder.build out;
    data_bit = List.map (fun q -> (q, bit_of.(q))) data;
    answer_phys = List.map (fun q -> (q, phys.(q))) answers;
    iteration_order = order;
    violations = List.rev !violations;
    slots;
  }

let min_exact_slots ?(mct = false) c =
  let max_slots = List.length (work_qubits c) in
  let rec go k =
    if k > max_slots then None
    else
      match transform ~mode:`Sound ~mct ~slots:k c with
      | (_ : result) -> Some k
      | exception (Not_transformable _ | Interaction.Cyclic _) -> go (k + 1)
  in
  go 1

let conditioned_count r =
  List.length
    (List.filter
       (fun (i : Instruction.t) ->
         match i with
         | Conditioned _ -> true
         | Unitary _ | Measure _ | Reset _ | Barrier _ -> false)
       (Circ.instructions r.circuit))
