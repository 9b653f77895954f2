type t = {
  mutable data : float array;
  mutable size : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  {
    data = [||];
    size = 0;
    sum = 0.0;
    sum_sq = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let add t x =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let data = Array.make (Stdlib.max 16 (2 * capacity)) 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.size

let mean t = if t.size = 0 then 0.0 else t.sum /. float_of_int t.size

let variance t =
  if t.size < 2 then 0.0
  else begin
    let n = float_of_int t.size in
    let m = t.sum /. n in
    (* two-pass for numerical stability *)
    let acc = ref 0.0 in
    for i = 0 to t.size - 1 do
      let d = t.data.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    !acc /. (n -. 1.0)
  end

let stddev t = sqrt (variance t)

let min t = t.min_v

let max t = t.max_v

let total t = t.sum

let samples t = Array.sub t.data 0 t.size

let percentile t p =
  if t.size = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = samples t in
  Array.sort compare sorted;
  let rank = p /. 100.0 *. float_of_int (t.size - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median t = percentile t 50.0

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarize t =
  if t.size = 0 then
    { n = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  else
    {
      n = t.size;
      mean = mean t;
      stddev = stddev t;
      min = t.min_v;
      max = t.max_v;
      p50 = percentile t 50.0;
      p95 = percentile t 95.0;
      p99 = percentile t 99.0;
    }

let histogram t ~buckets =
  if t.size = 0 then invalid_arg "Stats.histogram: empty";
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  let lo = t.min_v and hi = t.max_v in
  let width = if hi > lo then (hi -. lo) /. float_of_int buckets else 1.0 in
  let counts = Array.make buckets 0 in
  for i = 0 to t.size - 1 do
    let bin =
      Stdlib.min (buckets - 1)
        (int_of_float ((t.data.(i) -. lo) /. width))
    in
    counts.(bin) <- counts.(bin) + 1
  done;
  List.init buckets (fun b ->
      ( lo +. (float_of_int b *. width),
        lo +. (float_of_int (b + 1) *. width),
        counts.(b) ))

let pp_histogram ?(buckets = 10) ppf t =
  let bins = histogram t ~buckets in
  let peak = List.fold_left (fun acc (_, _, n) -> Stdlib.max acc n) 1 bins in
  List.iter
    (fun (lo, hi, n) ->
      let bar = String.make (n * 40 / peak) '#' in
      Format.fprintf ppf "%10.2f..%-10.2f %6d %s@." lo hi n bar)
    bins

module Tail = struct
  (* Log-bucketed (HDR-style) histogram: bucket [i] spans
     [lowest * growth^i, lowest * growth^(i+1)), so relative error per
     recorded value is bounded by [growth - 1] (~4%) regardless of
     magnitude, and memory stays O(log (max/lowest)) however many
     samples land. Quantiles come from a cumulative walk over the
     bucket counts, reported at each bucket's geometric midpoint. *)

  type t = {
    lowest : float;
    growth : float;
    inv_log_growth : float;
    mutable counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable max_v : float;
  }

  let create ?(lowest = 0.01) ?(growth = 1.04) () =
    if lowest <= 0.0 then invalid_arg "Tail.create: lowest must be positive";
    if growth <= 1.0 then invalid_arg "Tail.create: growth must exceed 1";
    {
      lowest;
      growth;
      inv_log_growth = 1.0 /. log growth;
      counts = Array.make 64 0;
      n = 0;
      sum = 0.0;
      max_v = neg_infinity;
    }

  let[@inline] bucket t x =
    if x <= t.lowest then 0
    else int_of_float (log (x /. t.lowest) *. t.inv_log_growth) + 1

  let add t x =
    let b = bucket t x in
    let cap = Array.length t.counts in
    if b >= cap then begin
      let counts = Array.make (Stdlib.max (b + 1) (2 * cap)) 0 in
      Array.blit t.counts 0 counts 0 cap;
      t.counts <- counts
    end;
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    if x > t.max_v then t.max_v <- x

  let count t = t.n

  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let max t = if t.n = 0 then 0.0 else t.max_v

  (* representative value for bucket [b]: geometric midpoint of its span *)
  let[@inline] bucket_value t b =
    if b = 0 then t.lowest
    else t.lowest *. (t.growth ** (float_of_int b -. 0.5))

  let quantile t q =
    if t.n = 0 then invalid_arg "Tail.quantile: empty";
    if q < 0.0 || q > 1.0 then invalid_arg "Tail.quantile: q out of range";
    let target = int_of_float (ceil (q *. float_of_int t.n)) in
    let target = if target < 1 then 1 else target in
    let acc = ref 0 and b = ref 0 in
    let last = Array.length t.counts - 1 in
    while !acc < target && !b <= last do
      acc := !acc + t.counts.(!b);
      if !acc < target then incr b
    done;
    Float.min (bucket_value t !b) t.max_v

  let p50 t = quantile t 0.50
  let p99 t = quantile t 0.99
  let p999 t = quantile t 0.999
end
