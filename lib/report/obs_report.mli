(** Human-readable sink for [Obs] collectors.

    [summary] stacks two tables — the breakdown [dqc_cli stats] prints:
    the spans aggregated by name (sorted by total time, with p50/p99
    from the same-name latency histogram and the share of observed
    wall time), then every counter and gauge.  [profile_summary] is the
    [dqc_cli profile] view: the full histogram ladder plus the top-k
    hottest spans. *)

val summary : Obs.Collector.t -> string

(** [profile_summary ?top c] ([top] defaults to 8). *)
val profile_summary : ?top:int -> Obs.Collector.t -> string
