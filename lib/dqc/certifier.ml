(* Bridge from transform results to the symbolic certifier. *)

open Circuit

let certify (c : Circ.t) (r : Transform.result) =
  let verdict =
    Verify.Certify.certify ~traditional:c
      ~data_bit:r.data_bit ~answer_phys:r.answer_phys
      ~iteration_order:r.iteration_order
      ~violations:(List.length r.violations) r.circuit
  in
  if Obs.Flight.enabled () then
    Obs.Flight.record ~kind:"certify.verdict"
      [
        ("verdict", Obs.Json.String (Verify.Certify.verdict_to_string verdict));
        ("proved", Obs.Json.Bool (Verify.Certify.is_proved verdict));
      ];
  verdict

(* the CLI's --corrupt fault injection: flip the qubit under the first
   measurement, which provably flips a recorded shared bit — used to
   demonstrate that the certifier refutes, not just rubber-stamps *)
let corrupt (c : Circ.t) =
  let done_ = ref false in
  Circ.map_instructions
    (fun i ->
      match i with
      | Instruction.Measure { qubit; _ } when not !done_ ->
          done_ := true;
          [
            Instruction.Unitary { gate = Gate.X; controls = []; target = qubit };
            i;
          ]
      | Instruction.Measure _ | Instruction.Unitary _
      | Instruction.Conditioned _ | Instruction.Reset _
      | Instruction.Barrier _ ->
          [ i ])
    c
