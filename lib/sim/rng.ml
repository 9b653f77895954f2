(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: reading and writing it there is unboxed, where every
   store to an [int64] field allocates a fresh box. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let[@inline] uniform t =
  (* 53 random bits into the mantissa: uniform over [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int_below t bound =
  if bound <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  let mask = Int64.of_int (bound - 1) in
  if Int64.logand mask (Int64.of_int bound) = 0L then
    (* power of two: mask directly *)
    Int64.to_int (Int64.logand (next_int64 t) mask)
  else int_of_float (uniform t *. float_of_int bound)

let bool t ~p = uniform t < p

let exponential t ~mean =
  if mean < 0.0 then invalid_arg "Rng.exponential: negative mean";
  if mean = 0.0 then 0.0
  else
    let u = 1.0 -. uniform t in
    -.mean *. log u

module Zipf = struct
  (* Zipf(theta) over ranks 0..n-1: P(rank = i) proportional to
     1 / (i+1)^theta. Sampling inverts the precomputed CDF by binary
     search — O(log n) per draw, exact distribution, no rejection. *)
  type nonrec t = { cdf : float array }

  let create ~n ~theta =
    if n <= 0 then invalid_arg "Rng.Zipf.create: n must be positive";
    if theta < 0.0 then invalid_arg "Rng.Zipf.create: negative theta";
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
      cdf.(i) <- !acc
    done;
    let total = !acc in
    for i = 0 to n - 1 do
      cdf.(i) <- cdf.(i) /. total
    done;
    { cdf }

  let size t = Array.length t.cdf

  let draw t rng =
    let u = uniform rng in
    (* smallest i with cdf.(i) > u *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end
