open Circuit

type event = { pass : string; kind : Pass.kind; elapsed_ns : float }
type outcome = { ctx : Pass.ctx; events : event list }

(* The span attributes and the flight recorder's pass.begin/pass.end
   events are the snapshot's only readers, so it is taken only while a
   collector or a recorder is installed. *)
let snapshot c =
  (Circ.num_qubits c, Metrics.gate_count c, Metrics.dynamic_depth c)

(* The pass kind is exported as [pass_kind] — [kind] is the event
   header's field. *)
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
        let span = "pipeline.pass." ^ p.Pass.name in
        let kind_s = Pass.kind_to_string p.Pass.kind in
        let before = lazy (snapshot ctx.Pass.circuit) in
        if Obs.Flight.enabled () then
          Obs.Flight.record ~kind:"pass.begin"
            (flight_snapshot ~pass:p.Pass.name ~kind:kind_s
               (Lazy.force before));
        let attrs =
          if Obs.enabled () then
            let q, g, _ = Lazy.force before in
            [
              ("kind", kind_s);
              ("qubits", string_of_int q);
              ("gates", string_of_int g);
            ]
          else []
        in
        let t0 = Sys.time () in
        let ctx' =
          try Obs.with_span span ~attrs (fun () -> p.Pass.run ctx)
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
        if Obs.Flight.enabled () then
          Obs.Flight.record ~kind:"pass.end"
            (flight_snapshot ~pass:p.Pass.name ~kind:kind_s
               (snapshot ctx'.Pass.circuit));
        events :=
          { pass = p.Pass.name; kind = p.Pass.kind; elapsed_ns } :: !events;
        ctx')
      ctx passes
  in
  { ctx = final; events = List.rev !events }
