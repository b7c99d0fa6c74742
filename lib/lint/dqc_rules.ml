(* DQC-discipline passes: invariants of the paper's dynamic
   transformation outputs that the general catalogue cannot know
   about — the single-physical-data-qubit discipline (generalized to
   [max_live] slots for [Transform.transform ~slots] outputs) and the
   rule that answer qubits stay live across iterations. *)

open Circuit

let q_name q = Printf.sprintf "q%d" q

let live_data ~max_live =
  Pass.make ~name:"dqc-live-data"
    ~description:
      "more data qubits live simultaneously than the DQC slot discipline \
       allows"
    (fun trace ->
      let c = Trace.circuit trace in
      let live = Array.make (Circ.num_qubits c) false in
      let count = ref 0 in
      let out = ref [] in
      let touch i q =
        if Circ.role c q = Circ.Data && not live.(q) then begin
          live.(q) <- true;
          incr count;
          if !count > max_live then begin
            let live_now =
              List.filter
                (fun p -> live.(p))
                (List.init (Circ.num_qubits c) (fun p -> p))
            in
            out :=
              Diagnostic.make ~pass:"dqc-live-data"
                ~severity:Diagnostic.Error ~instr_index:i ~qubits:live_now
                ~suggestion:
                  "measure and reset earlier data qubits first, or raise the \
                   slot count"
                (Printf.sprintf
                   "touching %s makes %d data qubits live simultaneously \
                    (%s); the DQC discipline allows %d"
                   (q_name q) !count
                   (String.concat ", " (List.map q_name live_now))
                   max_live)
              :: !out
          end
        end
      in
      let kill q =
        if Circ.role c q = Circ.Data && live.(q) then begin
          live.(q) <- false;
          decr count
        end
      in
      Trace.iteri
        (fun i ~pre:_ (instr : Instruction.t) ->
          match instr with
          | Unitary _ | Conditioned _ ->
              List.iter (touch i) (Instruction.qubits instr)
          | Measure { qubit; _ } -> kill qubit
          | Reset q -> kill q
          | Barrier _ -> ())
        trace;
      List.rev !out)

let answer_reset =
  Pass.make ~name:"dqc-answer-reset"
    ~description:"answer qubits stay live across DQC iterations: never reset"
    (fun trace ->
      let c = Trace.circuit trace in
      let out = ref [] in
      Trace.iteri
        (fun i ~pre:_ (instr : Instruction.t) ->
          match instr with
          | Reset q when Circ.role c q = Circ.Answer ->
              out :=
                Diagnostic.make ~pass:"dqc-answer-reset"
                  ~severity:Diagnostic.Error ~instr_index:i ~qubits:[ q ]
                  ~suggestion:
                    "answer qubits carry the oracle output across \
                     iterations; never reset them"
                  (Printf.sprintf "reset on answer qubit %s destroys the \
                                   oracle output"
                     (q_name q))
                :: !out
          | Reset _ | Unitary _ | Conditioned _ | Measure _ | Barrier _ -> ())
        trace;
      List.rev !out)

let passes ?(max_live = 1) () = [ live_data ~max_live; answer_reset ]
