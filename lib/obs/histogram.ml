(* Log-linear (HDR-style) latency histogram.

   Values (nanoseconds, non-negative ints) land in buckets laid out as
   [sub = 2^sub_bits] linear sub-buckets per power of two: values below
   [2 * sub] are recorded exactly (bucket = value), and every larger
   bucket spans [2^(k - sub_bits)] consecutive values where [2^k] is
   the value's power-of-two range.  Quantile estimates therefore carry
   a bounded relative error of at most [2^-sub_bits] (3.125%), while
   the whole structure is a flat int array: recording is two shifts and
   an increment, and merging is bucket-wise addition — which is what
   makes per-domain histograms mergeable at flush with totals
   independent of the domain count, exactly like counters.

   Exact min/max/sum ride alongside the buckets so the extremes and the
   mean stay error-free. *)

let sub_bits = 5
let sub = 1 lsl sub_bits

(* Durations above ~3.2 days saturate into the top bucket rather than
   growing the array; telemetry values that large are a bug upstream. *)
let max_exp = 48

let num_buckets = ((max_exp - sub_bits + 1) * sub) + sub

type t = {
  counts : int array;
  mutable total : int;
  mutable vmin : int;
  mutable vmax : int;
  mutable sum : float;
}

let create () =
  {
    counts = Array.make num_buckets 0;
    total = 0;
    vmin = max_int;
    vmax = 0;
    sum = 0.;
  }

let count t = t.total
let is_empty t = t.total = 0
let min_value t = if t.total = 0 then 0 else t.vmin
let max_value t = t.vmax
let sum t = t.sum
let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total

(* Power-of-two range of [v >= 1]: the [k] with [2^k <= v < 2^(k+1)],
   by constant-time binary descent. *)
let msb v =
  let k = ref 0 and v = ref v in
  if !v lsr 32 > 0 then begin k := !k + 32; v := !v lsr 32 end;
  if !v lsr 16 > 0 then begin k := !k + 16; v := !v lsr 16 end;
  if !v lsr 8 > 0 then begin k := !k + 8; v := !v lsr 8 end;
  if !v lsr 4 > 0 then begin k := !k + 4; v := !v lsr 4 end;
  if !v lsr 2 > 0 then begin k := !k + 2; v := !v lsr 2 end;
  if !v lsr 1 > 0 then incr k;
  !k

let bucket_of v =
  if v < 2 * sub then v
  else begin
    let k = msb v in
    let k = if k > max_exp then max_exp else k in
    let block = k - sub_bits + 1 in
    let off = (v lsr (k - sub_bits)) land (sub - 1) in
    min (num_buckets - 1) ((block * sub) + off)
  end

(* Inclusive lower bound of bucket [b] — the quantile estimate the
   error-bound contract is stated against. *)
let bucket_low b =
  if b < 2 * sub then b
  else begin
    let block = b / sub in
    let off = b mod sub in
    (sub + off) lsl (block - 1)
  end

let record t v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  t.sum <- t.sum +. float_of_int v

(* Reset to empty without dropping the bucket array — the per-domain
   telemetry buffers clear-in-place at flush so a long-lived process
   does not reallocate (and GC) ~12 KB per histogram per run.  Only the
   buckets between the extremes can hold counts, and an empty
   histogram holds none. *)
let clear t =
  if t.total > 0 then begin
    let lo = bucket_of t.vmin in
    Array.fill t.counts lo (bucket_of t.vmax - lo + 1) 0
  end;
  t.total <- 0;
  t.vmin <- max_int;
  t.vmax <- 0;
  t.sum <- 0.

let merge_into ~into src =
  if src.total > 0 then
    for b = bucket_of src.vmin to bucket_of src.vmax do
      into.counts.(b) <- into.counts.(b) + src.counts.(b)
    done;
  into.total <- into.total + src.total;
  if src.total > 0 then begin
    if src.vmin < into.vmin then into.vmin <- src.vmin;
    if src.vmax > into.vmax then into.vmax <- src.vmax
  end;
  into.sum <- into.sum +. src.sum

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let copy t =
  let c = create () in
  merge_into ~into:c t;
  c

let quantile t q =
  if t.total = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.total)) in
      if r < 1 then 1 else if r > t.total then t.total else r
    in
    let b = ref 0 and seen = ref 0 in
    while !seen < rank && !b < num_buckets do
      seen := !seen + t.counts.(!b);
      incr b
    done;
    let low = bucket_low (!b - 1) in
    (* the extremes are tracked exactly: never report below the true
       minimum or (for the last occupied bucket) above the true max *)
    if low < t.vmin then t.vmin else if low > t.vmax then t.vmax else low
  end

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

(* Relative quantile error bound the bucket layout guarantees: the true
   sample sits within [est, est * (1 + bound)] (plus 1 ns of integer
   truncation).  Tested in test/test_obs.ml. *)
let error_bound = 1. /. float_of_int sub

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.total);
      ("sum_ns", Json.Float t.sum);
      ("min_ns", Json.Int (min_value t));
      ("max_ns", Json.Int t.vmax);
      ("mean_ns", Json.Float (mean t));
      ("p50_ns", Json.Int (p50 t));
      ("p90_ns", Json.Int (p90 t));
      ("p99_ns", Json.Int (p99 t));
      ("p999_ns", Json.Int (p999 t));
    ]
