open Circuit

type verdict =
  | Exact_certified
  | Exact_observed
  | Approximate of float
  | Untransformable of string

type report = {
  num_qubits : int;
  data_qubits : int;
  answer_qubits : int;
  ancilla_qubits : int;
  interaction_edges : (int * int) list;
  cyclic : bool;
  iterations : int option;
  conditioned : int option;
  violations : int option;
  qubit_savings : int option;
  min_exact_slots : int option;
  verdict : verdict;
}

let analyze ?(mct = false) c =
  let count role = List.length (Circ.qubits_with_role c role) in
  let interaction_edges = Interaction.edges c in
  let cyclic =
    match Interaction.iteration_order c with
    | (_ : int list) -> false
    | exception Interaction.Cyclic _ -> true
  in
  let base =
    {
      num_qubits = Circ.num_qubits c;
      data_qubits = count Circ.Data;
      answer_qubits = count Circ.Answer;
      ancilla_qubits = count Circ.Ancilla;
      interaction_edges;
      cyclic;
      iterations = None;
      conditioned = None;
      violations = None;
      qubit_savings = None;
      min_exact_slots = None;
      verdict = Untransformable "not analyzed";
    }
  in
  let min_exact_slots =
    if Circ.num_qubits c <= 10 then
      Transform.min_exact_slots ~mct c
    else None
  in
  let base = { base with min_exact_slots } in
  (* certified path first: a sound schedule settles the question *)
  match Transform.transform ~mode:`Sound ~mct c with
  | sound ->
      {
        base with
        iterations = Some (List.length sound.iteration_order);
        conditioned = Some (Transform.conditioned_count sound);
        violations = Some 0;
        qubit_savings =
          Some (Circ.num_qubits c - Circ.num_qubits sound.circuit);
        verdict = Exact_certified;
      }
  | exception Interaction.Cyclic _ ->
      { base with verdict = Untransformable "cyclic data-qubit interaction" }
  | exception Transform.Not_transformable _ -> (
      match Transform.transform ~mode:`Algorithm1 ~mct c with
      | r ->
          let verdict =
            if Circ.num_qubits c <= 12 then begin
              let tv = Equivalence.tv_distance c r in
              if tv <= 1e-9 then Exact_observed else Approximate tv
            end
            else Approximate Float.nan
          in
          {
            base with
            iterations = Some (List.length r.iteration_order);
            conditioned = Some (Transform.conditioned_count r);
            violations = Some (List.length r.violations);
            qubit_savings = Some (Circ.num_qubits c - Circ.num_qubits r.circuit);
            verdict;
          }
      | exception Transform.Not_transformable msg ->
          { base with verdict = Untransformable msg })

let verdict_to_string = function
  | Exact_certified -> "exact (certified by sound scheduling)"
  | Exact_observed -> "exact (observed; Algorithm 1 reorders unsoundly)"
  | Approximate tv ->
      if Float.is_nan tv then "approximate (too large for exact check)"
      else Printf.sprintf "approximate (TV distance %.4f)" tv
  | Untransformable msg -> "untransformable: " ^ msg

let pp fmt r =
  Format.fprintf fmt
    "@[<v>qubits: %d (%d data, %d answer, %d ancilla)@,\
     data-qubit interactions: %d edge(s)%s@,"
    r.num_qubits r.data_qubits r.answer_qubits r.ancilla_qubits
    (List.length r.interaction_edges)
    (if r.cyclic then " - CYCLIC" else "");
  (match (r.iterations, r.conditioned, r.violations) with
  | Some iters, Some cc, Some v ->
      Format.fprintf fmt
        "iterations: %d, conditioned gates: %d, unsound reorderings: %d@,"
        iters cc v
  | _, _, _ -> ());
  (match r.qubit_savings with
  | Some s -> Format.fprintf fmt "qubit savings: %d@," s
  | None -> ());
  (match r.min_exact_slots with
  | Some k -> Format.fprintf fmt "provably exact from %d data slot(s)@," k
  | None -> ());
  Format.fprintf fmt "verdict: %s@]" (verdict_to_string r.verdict)

let to_string r = Format.asprintf "%a" pp r
