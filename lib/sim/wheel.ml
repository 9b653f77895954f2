(* Bucketed calendar-queue timer queue.

   The virtual-time axis is cut into fixed-width buckets; a rotating
   window of [nbuckets] of them is materialized as an array, each slot
   a small 4-ary [Heap] keyed by [(priority, seq)]. Events beyond the
   window park in a single overflow heap and are adopted into buckets
   as the window rotates over them.

   Why this beats one big heap in the millions-of-timers regime: a
   push or pop sifts through a heap of one bucket's occupancy — the
   pending population divided by the window — instead of the whole
   population, so the O(log n) of the monolithic queue becomes
   O(log (n / nbuckets)) with far better cache locality (each bucket's
   three SoA arrays are small and hot).

   Ordering is exact, not approximate. Bucket epochs are computed in
   integers ([epoch p = int (p / width)]), so two equal priorities can
   never land in differently-ranked buckets, and three invariants keep
   the first non-empty bucket's heap minimum equal to the global
   minimum by [(priority, seq)]:

   - every bucket entry's epoch lies in the current window
     [[base_k, base_k + nbuckets)];
   - an entry pushed with an epoch at or below [base_k] (the engine
     pushes monotonically, but ring-lane callbacks may arm timers
     behind a window the queue has already rotated toward) goes into
     the *current* bucket, whose heap orders it correctly among its
     neighbours;
   - [settle] adopts overflow entries the moment their epoch enters
     the window, before the window advances past them.

   The engine drains the two lanes by [(time, seq)] exactly as it does
   with the heap backend, so a wheel-backed engine replays the same
   schedule event-for-event. *)

type 'a t = {
  width : float;  (* bucket span, in engine time units (ms) *)
  inv_width : float;
  nbuckets : int;
  buckets : 'a Heap.t array;
  mutable base_k : int;  (* epoch of the current bucket *)
  mutable cur : int;  (* always base_k mod nbuckets *)
  overflow : 'a Heap.t;  (* entries with epoch >= base_k + nbuckets *)
  mutable in_buckets : int;
}

let create ?(width = 0.5) ?(buckets = 4096) () =
  if width <= 0.0 then invalid_arg "Wheel.create: width must be positive";
  if buckets <= 0 then invalid_arg "Wheel.create: buckets must be positive";
  {
    width;
    inv_width = 1.0 /. width;
    nbuckets = buckets;
    buckets = Array.init buckets (fun _ -> Heap.create ());
    base_k = 0;
    cur = 0;
    overflow = Heap.create ();
    in_buckets = 0;
  }

let[@inline] epoch t p = int_of_float (p *. t.inv_width)

let[@inline] length t = t.in_buckets + Heap.length t.overflow

let[@inline] is_empty t = t.in_buckets = 0 && Heap.is_empty t.overflow

let bucket_push t ~priority ~seq value =
  let k = epoch t priority in
  let idx = if k <= t.base_k then t.cur else k mod t.nbuckets in
  Heap.push t.buckets.(idx) ~priority ~seq value;
  t.in_buckets <- t.in_buckets + 1

let push t ~priority ~seq value =
  if epoch t priority >= t.base_k + t.nbuckets then
    Heap.push t.overflow ~priority ~seq value
  else bucket_push t ~priority ~seq value

(* Adopt every overflow entry whose epoch has entered the window. *)
let adopt t =
  let continue = ref true in
  while !continue do
    if Heap.is_empty t.overflow then continue := false
    else begin
      let p = Heap.min_priority t.overflow in
      if epoch t p < t.base_k + t.nbuckets then begin
        let seq = Heap.min_seq t.overflow in
        let v = Heap.pop_exn t.overflow in
        bucket_push t ~priority:p ~seq v
      end
      else continue := false
    end
  done

(* Rotate the window until the current bucket holds the global minimum
   (or the wheel is empty). Amortized O(1) per bucket per rotation. *)
let settle t =
  let continue = ref true in
  while !continue do
    adopt t;
    if t.in_buckets = 0 then
      if Heap.is_empty t.overflow then continue := false
      else begin
        (* empty window, events far ahead: jump straight to the
           overflow minimum's epoch; the next [adopt] fills buckets *)
        t.base_k <- epoch t (Heap.min_priority t.overflow);
        t.cur <- t.base_k mod t.nbuckets
      end
    else if Heap.is_empty t.buckets.(t.cur) then begin
      t.base_k <- t.base_k + 1;
      t.cur <- t.cur + 1;
      if t.cur = t.nbuckets then t.cur <- 0
    end
    else continue := false
  done

let min_priority t =
  settle t;
  if t.in_buckets = 0 then invalid_arg "Wheel.min_priority: empty";
  Heap.min_priority t.buckets.(t.cur)

let min_before t ~priority ~seq =
  settle t;
  if t.in_buckets = 0 then invalid_arg "Wheel.min_before: empty";
  Heap.min_before t.buckets.(t.cur) ~priority ~seq

let pop_exn t =
  settle t;
  if t.in_buckets = 0 then invalid_arg "Wheel.pop_exn: empty";
  let v = Heap.pop_exn t.buckets.(t.cur) in
  t.in_buckets <- t.in_buckets - 1;
  v

let pop t = if is_empty t then None else Some (pop_exn t)
