type t = {
  mutable data : float array;
  mutable size : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  {
    data = [||];
    size = 0;
    sum = 0.0;
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
