(* Every sample a run records, kept exactly: percentiles are
   nearest-rank over the sorted samples, not bucketed estimates. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

(* The ceil(q * n)-th smallest sample; 0 when there are none. *)
let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let percentile t q = rank (sorted t) q

(* Order-sensitive digest of the samples, for the repeat-identity check. *)
let digest t =
  let h = ref 0.0 in
  for i = 0 to t.n - 1 do
    h := (!h *. 0.999) +. t.a.(i)
  done;
  Printf.sprintf "%d:%h" t.n !h
