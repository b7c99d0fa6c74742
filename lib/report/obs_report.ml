(* Human-readable sink for the telemetry layer: render a collector as
   per-span timing and counter/gauge tables.  Lives here (not in
   lib/obs) because obs must stay dependency-free while report already
   owns table rendering. *)

let ms ns = Printf.sprintf "%.3f" (Obs.Clock.ns_to_ms ns)
let us ns = Printf.sprintf "%.1f" (Obs.Clock.ns_to_us ns)
let usi ns = us (Int64.of_int ns)

(* p50/p99 come from the same-name histogram with_span feeds; "-" for
   a span name that somehow has none (it was absorbed empty). *)
let span_percentiles c name =
  match Obs.Collector.histogram c name with
  | Some h when not (Obs.Histogram.is_empty h) ->
      (usi (Obs.Histogram.p50 h), usi (Obs.Histogram.p99 h))
  | Some _ | None -> ("-", "-")

let span_headers =
  [ "span"; "count"; "total ms"; "mean us"; "p50 us"; "p99 us"; "max us"; "share" ]

let span_rows c =
  let wall = Obs.Collector.root_wall_ns c in
  let stats = Obs.Collector.span_stats c in
  let by_total =
    List.sort
      (fun (_, a) (_, b) ->
        Int64.compare b.Obs.Collector.total_ns a.Obs.Collector.total_ns)
      stats
  in
  List.map
    (fun (name, (st : Obs.Collector.span_stat)) ->
      let share =
        if wall = 0L then "-"
        else
          Printf.sprintf "%.1f%%"
            (100. *. Int64.to_float st.total_ns /. Int64.to_float wall)
      in
      let p50, p99 = span_percentiles c name in
      [
        name;
        string_of_int st.count;
        ms st.total_ns;
        us (Int64.div st.total_ns (Int64.of_int (max 1 st.count)));
        p50;
        p99;
        us st.max_ns;
        share;
      ])
    by_total

let counter_rows c =
  List.map
    (fun (name, v) -> [ name; string_of_int v ])
    (Obs.Collector.counters c)
  @ List.map
      (fun (name, v) -> [ name; Printf.sprintf "%.4g" v ])
      (Obs.Collector.gauges c)

let histogram_headers =
  [ "histogram"; "count"; "mean us"; "p50 us"; "p90 us"; "p99 us";
    "p99.9 us"; "max us" ]

let histogram_rows c =
  let named =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Obs.Collector.histograms c)
  in
  List.filter_map
    (fun (name, h) ->
      if Obs.Histogram.is_empty h then None
      else
        Some
          [
            name;
            string_of_int (Obs.Histogram.count h);
            Printf.sprintf "%.1f" (Obs.Histogram.mean h /. 1e3);
            usi (Obs.Histogram.p50 h);
            usi (Obs.Histogram.p90 h);
            usi (Obs.Histogram.p99 h);
            usi (Obs.Histogram.p999 h);
            usi (Obs.Histogram.max_value h);
          ])
    named

let rec take k = function
  | [] -> []
  | x :: rest -> if k <= 0 then [] else x :: take (k - 1) rest

let summary c =
  Printf.sprintf "%s\n%s\n%s\n%s"
    (Table.render_titled ~title:"Spans" ~headers:span_headers
       ~rows:(span_rows c) ())
    ""
    (Table.render_titled ~title:"Counters and gauges"
       ~headers:[ "counter / gauge"; "value" ]
       ~rows:(counter_rows c) ())
    ""

let profile_summary ?(top = 8) c =
  let hot = take top (span_rows c) in
  Printf.sprintf "%s\n%s\n%s\n%s"
    (Table.render_titled
       ~title:
         (Printf.sprintf "Latency histograms (quantile error <= %.3g%%)"
            (100. *. Obs.Histogram.error_bound))
       ~headers:histogram_headers ~rows:(histogram_rows c) ())
    ""
    (Table.render_titled
       ~title:(Printf.sprintf "Hottest spans (top %d by total time)" top)
       ~headers:span_headers ~rows:hot ())
    ""
