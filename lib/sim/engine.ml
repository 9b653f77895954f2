(* The event queue is split into two lanes:

   - timed events go through the 4-ary [Heap], keyed by
     [(time, sequence)];
   - same-instant events ([delay = 0] — every [Fiber.yield], every
     resumption) go through a flat FIFO ring and never touch the timed
     queue.

   Ring entries always carry the current virtual time: the clock only
   advances by executing a timed event, and a timed event is only
   chosen while the ring is non-empty if it is an *older* same-instant
   event (smaller sequence number at the same time). Interleaving the
   two lanes by [(time, seq)] therefore reproduces exactly the order a
   single heap would give — determinism is preserved bit-for-bit.

   Timers ([schedule_timer]) support cancellation by lazy deletion:
   cancelling drops the callback immediately (captured state becomes
   collectable) and leaves a small tombstone in the queue that is
   discarded, not executed, when it surfaces. The timer event itself is
   the cancel handle, so arming one allocates a single small record.

   A push allocates only its event block, and a fiber wait not even
   that: its [Wait] block is the event (see [expire] and [resume]).
   The heap lives in this compilation unit so that its [push],
   [pop_exn], [min_priority] and [min_before] inline into the engine:
   a float crossing a module boundary is boxed in a build that passes
   [-opaque], and inlined, no event time is ever boxed on either lane.
   The clock sits in a record of floats only, which is stored flat, so
   advancing it boxes nothing either.

   Pending-count invariant: [dead] counts exactly the cancelled timers
   whose tombstones are still buried in either lane — cancellation
   increments it, draining a tombstone decrements it, and nothing else
   touches it (a timer that already fired flips [live] first, so a
   late cancel cannot re-increment). Hence
   [pending = queue + ring - dead] never counts a cancelled timer,
   even while its tombstone is still queued. *)

module Heap = struct
  (* 4-ary min-heap in structure-of-arrays layout.

     Priorities live in an unboxed [float array] and tie-breaking
     sequence numbers in an [int array], so the comparisons that
     dominate sift cost never chase a pointer. Values are kept in a
     separate [Obj.t array]: the universal representation lets vacated
     slots be overwritten with a unit sentinel (so popped callbacks
     become collectable) without requiring a dummy of the element type,
     and keeps the array a pointer array even when the element type is
     [float].

     Both sifts use hole-sifting: the entry being placed is held in
     registers while the hole migrates, one store per level instead of
     the three of a swap. Arity 4 halves the depth of a binary heap;
     the extra comparisons per level are cheap flat-array loads. *)

  let arity = 4

  type 'a t = {
    mutable prios : float array;
    mutable seqs : int array;
    mutable vals : Obj.t array;
    mutable size : int;
  }

  (* Sentinel stored in every slot not holding a live element. *)
  let dummy : Obj.t = Obj.repr ()

  let create () = { prios = [||]; seqs = [||]; vals = [||]; size = 0 }

  let[@inline] length t = t.size

  let[@inline] is_empty t = t.size = 0

  let grow t =
    let capacity = max 16 (2 * t.size) in
    let prios = Array.make capacity 0.0 in
    let seqs = Array.make capacity 0 in
    let vals = Array.make capacity dummy in
    Array.blit t.prios 0 prios 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.prios <- prios;
    t.seqs <- seqs;
    t.vals <- vals

  let[@inline] push t ~priority ~seq value =
    if t.size = Array.length t.prios then grow t;
    let prios = t.prios and seqs = t.seqs and vals = t.vals in
    (* hole starts at the new tail slot and migrates toward the root
       past every larger parent; the pushed entry is stored once at the
       end *)
    let i = ref t.size in
    t.size <- t.size + 1;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let parent = (!i - 1) / arity in
      let pp = Array.unsafe_get prios parent in
      if priority < pp || (priority = pp && seq < Array.unsafe_get seqs parent)
      then begin
        Array.unsafe_set prios !i pp;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
        Array.unsafe_set vals !i (Array.unsafe_get vals parent);
        i := parent
      end
      else sifting := false
    done;
    Array.unsafe_set prios !i priority;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set vals !i (Obj.repr value)

  let[@inline] pop_exn t =
    if t.size = 0 then invalid_arg "Heap.pop_exn: empty";
    let vals = t.vals in
    let top = Array.unsafe_get vals 0 in
    let n = t.size - 1 in
    t.size <- n;
    if n = 0 then Array.unsafe_set vals 0 dummy
    else begin
      let prios = t.prios and seqs = t.seqs in
      (* the tail entry re-enters along the min-child path of the hole
         left at the root; its old slot is cleared so the value it held
         is no longer reachable from the heap *)
      let tp = Array.unsafe_get prios n in
      let ts = Array.unsafe_get seqs n in
      let tv = Array.unsafe_get vals n in
      Array.unsafe_set vals n dummy;
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let first = (arity * !i) + 1 in
        if first >= n then sifting := false
        else begin
          (* not [Stdlib.min]: that is a polymorphic-compare call *)
          let last =
            let l = first + (arity - 1) in
            if l < n then l else n - 1
          in
          let m = ref first in
          let mp = ref (Array.unsafe_get prios first) in
          let ms = ref (Array.unsafe_get seqs first) in
          for c = first + 1 to last do
            let cp = Array.unsafe_get prios c in
            if cp < !mp || (cp = !mp && Array.unsafe_get seqs c < !ms) then begin
              m := c;
              mp := cp;
              ms := Array.unsafe_get seqs c
            end
          done;
          if !mp < tp || (!mp = tp && !ms < ts) then begin
            Array.unsafe_set prios !i !mp;
            Array.unsafe_set seqs !i !ms;
            Array.unsafe_set vals !i (Array.unsafe_get vals !m);
            i := !m
          end
          else sifting := false
        end
      done;
      Array.unsafe_set prios !i tp;
      Array.unsafe_set seqs !i ts;
      Array.unsafe_set vals !i tv
    end;
    (Obj.obj top : 'a)

  let pop t = if t.size = 0 then None else Some (pop_exn t)

  let[@inline] min_priority t =
    if t.size = 0 then invalid_arg "Heap.min_priority: empty";
    Array.unsafe_get t.prios 0

  (* unchecked: the engine asks only after [min_priority] *)
  let[@inline] min_seq t = Array.unsafe_get t.seqs 0

  let[@inline] min_before t ~priority ~seq =
    if t.size = 0 then invalid_arg "Heap.min_before: empty";
    let p = Array.unsafe_get t.prios 0 in
    p < priority || (p = priority && Array.unsafe_get t.seqs 0 < seq)

  let clear t =
    t.prios <- [||];
    t.seqs <- [||];
    t.vals <- [||];
    t.size <- 0

  let isheap t =
    let ok = ref (t.size <= Array.length t.prios) in
    for i = 1 to t.size - 1 do
      let parent = (i - 1) / arity in
      let pp = t.prios.(parent) and cp = t.prios.(i) in
      if cp < pp || (cp = pp && t.seqs.(i) < t.seqs.(parent)) then ok := false
    done;
    (* vacated slots must hold the sentinel, not stale values *)
    for i = t.size to Array.length t.vals - 1 do
      if t.vals.(i) != dummy then ok := false
    done;
    !ok
end

type event =
  | Call of (unit -> unit)
  | Timer of { mutable live : bool; mutable fn : unit -> unit }
  | Wait : {
      eng : t;
      k : ('a, unit) Effect.Deep.continuation;
      mutable result : ('a, exn) result;
      mutable resumption : int;
      mutable prev : event;
      mutable next : event;
    }
      -> event
  | Hook of { mutable prev : event; mutable next : event; fn : unit -> unit }

and t = {
  clock : clock;
  mutable seq : int;
  mutable executed : int;
  mutable dead : int; (* cancelled timers still buried in the queue *)
  queue : event Heap.t;  (* the timed lane *)
  (* same-instant FIFO lane: parallel circular buffers, power-of-two
     capacity, [ring_seq] holding each event's global sequence number *)
  mutable ring : event array;
  mutable ring_seq : int array;
  mutable head : int;
  mutable len : int;
}

(* floats only, so stored flat: setting the time boxes nothing *)
and clock = { mutable now : float }

(* always a [Timer] *)
type timer = event

let noop () = ()

(* shared sentinel for vacated ring slots *)
let noop_event = Call noop

(* A handle that is already cancelled. [cancel] only writes to a live
   timer and this one is never queued, so sharing it is safe. *)
let no_timer = Timer { live = false; fn = noop }

let create () =
  {
    clock = { now = 0.0 };
    seq = 0;
    executed = 0;
    dead = 0;
    queue = Heap.create ();
    ring = [||];
    ring_seq = [||];
    head = 0;
    len = 0;
  }

let now t = t.clock.now

(* ------------------------------------------------------------------ *)
(* Group registrations *)

(* The links of a node in no list. A node starts out pointing here and
   points here again once unlinked, so building one takes a single
   allocation (a self-link built with [let rec] takes two). It is never
   written ([unlink] stops at it), so every domain may share it. *)
let rec detached = Hook { prev = detached; next = detached; fn = noop }

let next = function
  | Wait w -> w.next
  | Hook h -> h.next
  | Call _ | Timer _ -> invalid_arg "Engine.next: not a group node"

let[@inline] prev = function
  | Wait w -> w.prev
  | Hook h -> h.prev
  | Call _ | Timer _ -> invalid_arg "Engine.prev: not a group node"

let[@inline] set_next n x =
  match n with Wait w -> w.next <- x | Hook h -> h.next <- x | Call _ | Timer _ -> ()

let[@inline] set_prev n x =
  match n with Wait w -> w.prev <- x | Hook h -> h.prev <- x | Call _ | Timer _ -> ()

let append ~head n =
  let last = prev head in
  set_prev n last;
  set_next n head;
  set_next last n;
  set_prev head n

let unlink n =
  let next = next n in
  if next != detached then begin
    let prev = prev n in
    set_next prev next;
    set_prev next prev;
    set_prev n detached;
    set_next n detached
  end

(* ------------------------------------------------------------------ *)
(* Queueing *)

let ring_push t seq ev =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    let capacity = max 16 (2 * cap) in
    let ring = Array.make capacity noop_event in
    let ring_seq = Array.make capacity 0 in
    for i = 0 to t.len - 1 do
      let slot = (t.head + i) land (cap - 1) in
      ring.(i) <- t.ring.(slot);
      ring_seq.(i) <- t.ring_seq.(slot)
    done;
    t.ring <- ring;
    t.ring_seq <- ring_seq;
    t.head <- 0
  end;
  let slot = (t.head + t.len) land (Array.length t.ring - 1) in
  t.ring.(slot) <- ev;
  t.ring_seq.(slot) <- seq;
  t.len <- t.len + 1

let ring_pop t =
  let ev = t.ring.(t.head) in
  t.ring.(t.head) <- noop_event;
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  ev

let[@inline] push_event t ~time ev =
  let seq = t.seq in
  t.seq <- seq + 1;
  if time <= t.clock.now then ring_push t seq ev
  else Heap.push t.queue ~priority:time ~seq ev

let schedule_at t ~time f = push_event t ~time (Call f)

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push_event t ~time:(t.clock.now +. delay) (Call f)

let schedule_timer t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_timer: negative delay";
  let tm = Timer { live = true; fn = f } in
  push_event t ~time:(t.clock.now +. delay) tm;
  tm

let cancel t = function
  | Timer tm when tm.live ->
      tm.live <- false;
      (* release the callback now; the tombstone is swept at pop *)
      tm.fn <- noop;
      t.dead <- t.dead + 1
  | Timer _ | Call _ | Wait _ | Hook _ -> ()

(* ------------------------------------------------------------------ *)
(* Fiber waits *)

let expire t ~delay ev =
  if delay < 0.0 then invalid_arg "Engine.expire: negative delay";
  match ev with
  | Wait _ -> push_event t ~time:(t.clock.now +. delay) ev
  | Call _ | Timer _ | Hook _ -> invalid_arg "Engine.expire: not a wait"

(* A wait's resumption goes on the same-instant ring; the wait keeps
   its sequence number, so the run can tell this entry from the wait's
   expiry, which may still be queued at the same instant. *)
let resume ev =
  match ev with
  | Wait w when w.resumption < 0 ->
      unlink ev;
      let t = w.eng in
      let seq = t.seq in
      t.seq <- seq + 1;
      w.resumption <- seq;
      ring_push t seq ev
  | Wait _ | Call _ | Timer _ | Hook _ -> ()

(* What a resumed wait holds in place of its result, so a wait queue
   that still holds the wait keeps no value alive through it. *)
let spent = Error Exit

(* Run a popped event, [seq] being the sequence number it was queued
   with. A dead timer is a tombstone: it is dropped without counting as
   executed, and the caller moves on. *)
let[@inline] run_event t ev seq =
  match ev with
  | Call f ->
      t.executed <- t.executed + 1;
      f ();
      true
  | Wait w ->
      t.executed <- t.executed + 1;
      if seq = w.resumption then begin
        let result = w.result in
        w.result <- spent;
        match result with
        | Ok v -> Effect.Deep.continue w.k v
        | Error e -> Effect.Deep.discontinue w.k e
      end
      (* the expiry of a wait still pending; a wait resumed earlier
         leaves a stale expiry that does nothing *)
      else if w.resumption < 0 then resume ev;
      true
  | Timer tm ->
      if tm.live then begin
        let f = tm.fn in
        (* timers fire once: drop the closure as soon as it runs *)
        tm.live <- false;
        tm.fn <- noop;
        t.executed <- t.executed + 1;
        f ();
        true
      end
      else begin
        t.dead <- t.dead - 1;
        false
      end
  | Hook _ -> invalid_arg "Engine: a group hook is never queued"

(* Execute the next live event no later than [limit]. The next event is
   the minimum of the queue front and the ring head by [(time, seq)];
   ring entries sit at the current time. *)
let rec exec_next t ~limit =
  if t.len > 0 then begin
    let seq = t.ring_seq.(t.head) in
    let heap_first =
      (not (Heap.is_empty t.queue))
      && Heap.min_before t.queue ~priority:t.clock.now ~seq
    in
    if heap_first then exec_heap t ~limit
    else if t.clock.now > limit then false
    else run_event t (ring_pop t) seq || exec_next t ~limit
  end
  else if not (Heap.is_empty t.queue) then exec_heap t ~limit
  else false

and exec_heap t ~limit =
  let time = Heap.min_priority t.queue in
  if time > limit then false
  else begin
    let seq = Heap.min_seq t.queue in
    match Heap.pop_exn t.queue with
    | Timer { live = false; _ } ->
        t.dead <- t.dead - 1;
        exec_next t ~limit
    | ev ->
        t.clock.now <- time;
        run_event t ev seq
  end

let step t = exec_next t ~limit:infinity

let run ?until t =
  let limit = match until with Some l -> l | None -> infinity in
  while exec_next t ~limit do
    ()
  done;
  match until with
  | Some limit when limit > t.clock.now -> t.clock.now <- limit
  | _ -> ()

let pending t = Heap.length t.queue + t.len - t.dead

let executed t = t.executed
