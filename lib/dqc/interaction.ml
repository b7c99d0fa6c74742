open Circuit

exception Cyclic of int list

let is_work c q =
  match Circ.role c q with
  | Circ.Data | Circ.Ancilla -> true
  | Circ.Answer -> false

let edges c =
  let collect acc (i : Instruction.t) =
    match i with
    | Unitary { controls; target; _ } when is_work c target ->
        List.fold_left
          (fun acc ctl -> if is_work c ctl then (ctl, target) :: acc else acc)
          acc controls
    | Unitary _ | Conditioned _ | Measure _ | Reset _ | Barrier _ -> acc
  in
  List.fold_left collect [] (Circ.instructions c)
  |> List.sort_uniq compare

(* Kahn's algorithm, always picking the smallest available qubit. *)
let iteration_order c =
  let work =
    List.filter (is_work c)
      (List.init (Circ.num_qubits c) (fun q -> q))
  in
  let es = edges c in
  let indegree = Hashtbl.create 8 in
  List.iter (fun q -> Hashtbl.replace indegree q 0) work;
  List.iter
    (fun (_, t) ->
      Hashtbl.replace indegree t (1 + Hashtbl.find indegree t))
    es;
  let rec pick remaining order =
    match remaining with
    | [] -> List.rev order
    | _ -> (
        let available =
          List.filter (fun q -> Hashtbl.find indegree q = 0) remaining
        in
        match available with
        | [] -> raise (Cyclic remaining)
        | q :: _ ->
            let remaining = List.filter (( <> ) q) remaining in
            List.iter
              (fun (s, t) ->
                if s = q then
                  Hashtbl.replace indegree t (Hashtbl.find indegree t - 1))
              es;
            pick remaining (q :: order))
  in
  pick work []
