type 's channel = {
  p : 's -> float;
  hit : Random.State.t -> 's -> unit;
  miss : 's -> unit;
}

type collapse = Measure of { qubit : int; bit : int } | Reset of int
type 's cut = Collapse of collapse | Channel of 's channel

(* [runs.(j)]: the unitary and conditioned ops before cut [cuts.(j)],
   and a last run after every cut *)
type 's program = { runs : Program.t array; cuts : 's cut array }

let no_channels _ = ([], [])

let program ?stop ?(channels = no_channels) p =
  let stop = Option.value stop ~default:(Program.length p) in
  let runs = ref [] and cuts = ref [] and start = ref 0 in
  let run k = Program.sub p ~pos:!start ~len:(k - !start) in
  (* close the run of ops [start, k) at a cut; the next starts at [k] *)
  let cut k c =
    runs := run k :: !runs;
    cuts := c :: !cuts;
    start := k
  in
  for k = 0 to stop - 1 do
    let op = Program.get p k in
    let before, after = channels op in
    List.iter (fun ch -> cut k (Channel ch)) before;
    (match op with
    | Program.Kmeasure { qubit; bit } ->
        cut k (Collapse (Measure { qubit; bit }));
        start := k + 1
    | Program.Kreset q ->
        cut k (Collapse (Reset q));
        start := k + 1
    | Program.Kx _ | Program.Kh _ | Program.Kphase _ | Program.Kdiag _
    | Program.Ku2 _ | Program.Kcond _ ->
        ());
    List.iter (fun ch -> cut (k + 1) (Channel ch)) after
  done;
  {
    runs = Array.of_list (List.rev (run stop :: !runs));
    cuts = Array.of_list (List.rev !cuts);
  }

let holds units = units <= Float.ldexp 1. 16

(* The one recursion: each run executes once per branch, the last run
   hands the branch to [leaf], and at cut [j] the carrier's [part]
   decides how the branch parts, resuming each part with [go (j + 1)]. *)
let walk (type s c) (module E : Engine.Core with type state = s) wp
    ~(part : s cut -> s -> c -> (int -> s -> c -> unit) -> int -> unit) st
    (c : c) leaf =
  let last = Array.length wp.cuts in
  let rec go j st c =
    let run = wp.runs.(j) in
    if Program.length run > 0 then E.exec ~random:Program.no_random st run;
    if j = last then leaf st c else part wp.cuts.(j) st c go (j + 1)
  in
  go 0 st c

let qubit = function Measure { qubit; _ } -> qubit | Reset q -> q

(* Collapse onto the outcome drawn or enumerated at a measure or reset *)
let collapse (type s) (module E : Engine.Core with type state = s) st c
    outcome =
  match c with
  | Measure { qubit; bit } ->
      ignore (E.project st qubit outcome);
      E.set_bit st bit outcome
  | Reset q ->
      ignore (E.project st q outcome);
      if outcome then E.flip st q

(* ------------------------------------------------------------------ *)
(* Shot ranges                                                        *)

type block = {
  rngs : Random.State.t array;
  hold : bool;  (** may a sibling wait while the other side walks *)
  mutable tally : (int * int) list;
  mutable live : int;  (** states held *)
  mutable peak : int;
  mutable leaves : int;
  mutable copies : int;
}

(* Each shot of [lo, hi) draws once from its own stream and takes side 1
   when the draw is below [p].  The range is reordered in place, one
   swap per side-1 shot, so [lo, mid) took 0 and [mid, hi) took 1;
   [mid] is returned. *)
let partition rngs p lo hi =
  let i = ref lo and j = ref hi in
  while !i < !j do
    let r = rngs.(!i) in
    if Random.State.float r 1.0 < p then begin
      decr j;
      rngs.(!i) <- rngs.(!j);
      rngs.(!j) <- r
    end
    else incr i
  done;
  !j

let tally b register lo hi =
  b.tally <- (register, hi - lo) :: b.tally;
  b.leaves <- b.leaves + 1

let shots (type s) (module E : Engine.Core with type state = s) b wp st lo hi
    leaf =
  let copy st =
    b.copies <- b.copies + 1;
    b.live <- b.live + 1;
    b.peak <- max b.peak b.live;
    E.copy st
  in
  let branch st c outcome go j range =
    collapse (module E) st c outcome;
    go j st range
  in
  let part cut st ((lo, hi) as range) go j =
    match cut with
    | Collapse c ->
        let mid = partition b.rngs (E.prob_one st (qubit c)) lo hi in
        if mid = hi then branch st c false go j range
        else if mid = lo then branch st c true go j range
        else if b.hold then begin
          let copied = copy st in
          if mid - lo <= hi - mid then begin
            branch copied c false go j (lo, mid);
            b.live <- b.live - 1;
            branch st c true go j (mid, hi)
          end
          else begin
            branch copied c true go j (mid, hi);
            b.live <- b.live - 1;
            branch st c false go j (lo, mid)
          end
        end
        else begin
          for i = lo to hi - 2 do
            branch (copy st) c (i >= mid) go j (i, i + 1);
            b.live <- b.live - 1
          done;
          branch st c true go j (hi - 1, hi)
        end
    | Channel ch ->
        let p = ch.p st in
        let mid = if p > 0. then partition b.rngs p lo hi else hi in
        (* the shots that hit walk alone, the last in place when no
           shot missed *)
        let alone = if mid = lo then hi - 1 else hi in
        for i = mid to alone - 1 do
          let copied = copy st in
          ch.hit b.rngs.(i) copied;
          go j copied (i, i + 1);
          b.live <- b.live - 1
        done;
        if mid = lo then begin
          ch.hit b.rngs.(alone) st;
          go j st (alone, hi)
        end
        else begin
          ch.miss st;
          go j st (if mid = hi then range else (lo, mid))
        end
  in
  walk (module E) wp ~part st (lo, hi) (fun st (lo, hi) -> leaf st lo hi)

let execute ?domains ~seed ~shots ~hold ~width start =
  Parallel.run ?domains ~seed ~width ~shots (fun rngs ~lo ~hi ->
      let b =
        { rngs; hold; tally = []; live = 0; peak = 0; leaves = 0; copies = 0 }
      in
      if lo < hi then begin
        b.live <- 1;
        b.peak <- 1;
        start b lo hi
      end;
      if Obs.enabled () then begin
        Obs.incr ~n:b.leaves "backend.walk.branches";
        Obs.incr ~n:b.copies "backend.walk.copies";
        Obs.set_gauge "backend.walk.peak_states" (float_of_int b.peak)
      end;
      b.tally)

(* ------------------------------------------------------------------ *)
(* Probabilities                                                      *)

let probabilities (type s) (module E : Engine.Core with type state = s)
    ~prune wp st leaf =
  if not (prune >= 0.) then invalid_arg "Exact: negative prune threshold";
  let branch st c outcome prob p go j =
    if p *. prob > prune then begin
      collapse (module E) st c outcome;
      go j st (prob *. p)
    end
  in
  let part cut st prob go j =
    match cut with
    | Collapse c ->
        let p1 = E.prob_one st (qubit c) in
        if p1 *. prob > prune && (1. -. p1) *. prob > prune then begin
          branch (E.copy st) c false prob (1. -. p1) go j;
          branch st c true prob p1 go j
        end
        else if p1 *. prob > prune then branch st c true prob p1 go j
        else branch st c false prob (1. -. p1) go j
    | Channel _ -> invalid_arg "Walk.probabilities: a noise channel"
  in
  if 1.0 > prune then
    walk (module E) wp ~part st 1.0 (fun st prob ->
        Obs.incr "sim.exact.leaves";
        leaf st prob)
