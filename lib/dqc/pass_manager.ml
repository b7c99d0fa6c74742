open Circuit

type event = {
  pass : string;
  kind : Pass.kind;
  elapsed_ns : float;
  qubits_before : int;
  qubits_after : int;
  gates_before : int;
  gates_after : int;
  depth_before : int;
  depth_after : int;
}

type outcome = { ctx : Pass.ctx; events : event list }

let snapshot c =
  (Circ.num_qubits c, Metrics.gate_count c, Metrics.dynamic_depth c)

(* Flight-recorder snapshots: cheap enough to take unconditionally per
   pass, but only built when a recorder is armed.  The pass kind is
   exported as [pass_kind] — [kind] is the event header's field. *)
let flight_snapshot ~pass ~kind (q, g, d) =
  [
    ("pass", Obs.Json.String pass);
    ("pass_kind", Obs.Json.String kind);
    ("qubits", Obs.Json.Int q);
    ("gates", Obs.Json.Int g);
    ("depth", Obs.Json.Int d);
  ]

let run passes ctx =
  let events = ref [] in
  let final =
    List.fold_left
      (fun (ctx : Pass.ctx) (p : Pass.t) ->
        let qb, gb, db = snapshot ctx.Pass.circuit in
        let span = "pipeline.pass." ^ p.Pass.name in
        let kind_s = Pass.kind_to_string p.Pass.kind in
        if Obs.Flight.enabled () then
          Obs.Flight.record ~kind:"pass.begin"
            (flight_snapshot ~pass:p.Pass.name ~kind:kind_s (qb, gb, db));
        let t0 = Sys.time () in
        let ctx' =
          try
            Obs.with_span span
              ~attrs:
                [
                  ("kind", kind_s);
                  ("qubits", string_of_int qb);
                  ("gates", string_of_int gb);
                ]
              (fun () -> p.Pass.run ctx)
          with e ->
            Obs.incr "pipeline.pass.failed";
            if Obs.enabled () then Obs.incr (span ^ ".failed");
            if Obs.Flight.enabled () then
              Obs.Flight.record ~kind:"pass.failed"
                [
                  ("pass", Obs.Json.String p.Pass.name);
                  ("exn", Obs.Json.String (Printexc.to_string e));
                ];
            raise e
        in
        let elapsed_ns = (Sys.time () -. t0) *. 1e9 in
        if Obs.enabled () then Obs.incr (span ^ ".runs");
        let qa, ga, da = snapshot ctx'.Pass.circuit in
        if Obs.Flight.enabled () then
          Obs.Flight.record ~kind:"pass.end"
            (flight_snapshot ~pass:p.Pass.name ~kind:kind_s (qa, ga, da));
        events :=
          {
            pass = p.Pass.name;
            kind = p.Pass.kind;
            elapsed_ns;
            qubits_before = qb;
            qubits_after = qa;
            gates_before = gb;
            gates_after = ga;
            depth_before = db;
            depth_after = da;
          }
          :: !events;
        ctx')
      ctx passes
  in
  { ctx = final; events = List.rev !events }
