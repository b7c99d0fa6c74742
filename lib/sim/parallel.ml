let recommended_domains () = Domain.recommended_domain_count ()

(* One split per shot, in index order, so the stream of per-shot states
   is a pure function of [seed] — independent of how shots are later
   sharded across domains. *)
let shot_rngs ~seed shots =
  let root = Random.State.make [| seed |] in
  let states = Array.make shots root in
  for i = 0 to shots - 1 do
    states.(i) <- Random.State.split root
  done;
  states

(* Telemetry around one contiguous shot block: a span on the worker's
   own timeline plus per-block shot/wall-time tallies.  The block index
   [k] (not the OS domain id) keys the counters so [domains:1] and
   [domains:N] runs stay comparable. *)
let observed_block ~k f rngs lo hi =
  if not (Obs.enabled ()) then f rngs ~lo ~hi
  else begin
    let t0 = Obs.Clock.now_ns () in
    let r =
      Obs.with_span "parallel.block"
        ~attrs:
          [ ("block", string_of_int k); ("shots", string_of_int (hi - lo)) ]
        (fun () -> f rngs ~lo ~hi)
    in
    Obs.incr ~n:(hi - lo) (Printf.sprintf "parallel.block.%d.shots" k);
    Obs.set_gauge
      (Printf.sprintf "parallel.block.%d.wall_ns" k)
      (Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0));
    r
  end

let run ?domains ?(seed = Runner.default_seed) ~width ~shots f =
  if shots < 0 then invalid_arg "Parallel.run: negative shots";
  let domains =
    match domains with
    | Some d when d < 1 -> invalid_arg "Parallel.run: domains < 1"
    | Some d -> d
    | None -> recommended_domains ()
  in
  let domains = max 1 (min domains shots) in
  Obs.with_span "parallel.run"
    ~attrs:
      [ ("domains", string_of_int domains); ("shots", string_of_int shots) ]
    (fun () ->
      Obs.incr ~n:shots "parallel.shots";
      let rngs = shot_rngs ~seed shots in
      let bounds d = (d * shots / domains, (d + 1) * shots / domains) in
      (* workers take blocks 1..domains-1; block 0 runs here.  Each
         worker flushes its telemetry buffer before finishing, so
         per-domain records merge into the collector at join. *)
      let workers =
        Array.init (domains - 1) (fun k ->
            let lo, hi = bounds (k + 1) in
            Domain.spawn (fun () ->
                let r = observed_block ~k:(k + 1) f rngs lo hi in
                Obs.flush ();
                r))
      in
      let own =
        let lo, hi = bounds 0 in
        observed_block ~k:0 f rngs lo hi
      in
      Array.fold_left
        (fun acc worker ->
          Runner.merge acc (Runner.of_counts ~width (Domain.join worker)))
        (Runner.of_counts ~width own)
        workers)
