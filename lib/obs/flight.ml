(* Flight recorder: a fixed-size lock-free ring of structured events
   for post-mortem forensics.

   Writers claim a slot with one [Atomic.fetch_and_add] on the cursor
   and store a boxed event record into it — a single pointer write, so
   worker domains never contend on a lock and a torn event is
   impossible under the OCaml memory model.  The ring wraps: the last
   [capacity] events survive, which is the point — when the pipeline
   raises ([Lint.Rejected], [Reuse_refuted], [Zero_probability_branch])
   the dump shows exactly what led up to the failure (pass snapshots,
   lint diagnostics, certifier verdicts, RNG seeds, backend
   decisions), context the Chrome trace cannot carry.

   Like the metrics runtime, the recorder is armed explicitly
   ([install]); when it is not, [record] is one Atomic load and a
   branch. *)

type event = {
  seq : int;
  t_ns : int64;
  tid : int;
  kind : string;
  data : (string * Json.t) list;
}

type t = {
  slots : event option array;
  cursor : int Atomic.t;
  capacity : int;
  dump_path : string option;
  epoch_ns : int64;
}

let default_capacity = 1024

let active : t option Atomic.t = Atomic.make None

let enabled () = Option.is_some (Atomic.get active)
let current () = Atomic.get active

let install ?(capacity = default_capacity) ?dump_path () =
  if capacity < 1 then invalid_arg "Flight.install: capacity < 1";
  let t =
    {
      slots = Array.make capacity None;
      cursor = Atomic.make 0;
      capacity;
      dump_path;
      epoch_ns = Clock.now_ns ();
    }
  in
  Atomic.set active (Some t);
  t

let uninstall () = Atomic.set active None

let with_recorder ?capacity ?dump_path f =
  let t = install ?capacity ?dump_path () in
  let finally () =
    match Atomic.get active with
    | Some t' when t' == t -> uninstall ()
    | Some _ | None -> ()
  in
  let r = Fun.protect ~finally f in
  (t, r)

let record ~kind data =
  match Atomic.get active with
  | None -> ()
  | Some t ->
      let seq = Atomic.fetch_and_add t.cursor 1 in
      let e =
        { seq; t_ns = Clock.now_ns (); tid = (Domain.self () :> int); kind; data }
      in
      t.slots.(seq mod t.capacity) <- Some e

let recorded t = Atomic.get t.cursor

let dropped t =
  let n = recorded t in
  if n > t.capacity then n - t.capacity else 0

(* Snapshot of the surviving events in sequence order.  Concurrent
   writers may overwrite a slot mid-snapshot; sorting by the [seq]
   stamped into each event keeps the result well-ordered regardless. *)
let events t =
  Array.to_list t.slots
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> compare a.seq b.seq)

(* a data field shadowing a header field would produce a JSON object
   with duplicate keys (last-wins in most parsers) — drop it instead *)
let reserved_keys = [ "seq"; "t_us"; "tid"; "kind" ]

let event_json ~epoch_ns e =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("t_us", Json.Float (Clock.ns_to_us (Int64.sub e.t_ns epoch_ns)));
       ("tid", Json.Int e.tid);
       ("kind", Json.String e.kind);
     ]
    @ List.filter (fun (k, _) -> not (List.mem k reserved_keys)) e.data)

let schema = "dqc.flight/1"

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("capacity", Json.Int t.capacity);
      ("recorded", Json.Int (recorded t));
      ("dropped", Json.Int (dropped t));
      ( "events",
        Json.List (List.map (event_json ~epoch_ns:t.epoch_ns) (events t)) );
    ]

let to_string t = Json.to_string (to_json t)
let write ~path t = Json.write ~path (to_json t)

(* Crash-dump hook for the pipeline: record the raise itself, then dump
   to the armed path.  Returns the path written (None when the recorder
   is off or has no destination) so the caller can tell the user. *)
let dump_on_raise ~exn_name ~detail =
  match Atomic.get active with
  | None -> None
  | Some t -> (
      record ~kind:"pipeline.raised"
        [ ("exn", Json.String exn_name); ("detail", Json.String detail) ];
      match t.dump_path with
      | None -> None
      | Some path ->
          write ~path t;
          Some path)
