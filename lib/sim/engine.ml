(* The event queue is split into two lanes:

   - timed events go through the 4-ary [Heap], keyed by
     [(time, sequence)];
   - same-instant events ([delay = 0] — every [Fiber.yield], every
     resumption routed through the queue) go through a flat FIFO ring
     and never touch the timed queue.

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

   A same-instant push allocates only its event block: [push_event] is
   inlined into its callers, so the event time is never boxed on the
   ring lane (a timed push boxes it once, to hand it to the heap).
   [Apply] carries a function and its argument side by side, which lets
   a caller with a long-lived argument (a fiber resumer) schedule work
   without building a closure for it.

   Pending-count invariant: [dead] counts exactly the cancelled timers
   whose tombstones are still buried in either lane — cancellation
   increments it, draining a tombstone decrements it, and nothing else
   touches it (a timer that already fired flips [live] first, so a
   late cancel cannot re-increment). Hence
   [pending = queue + ring - dead] never counts a cancelled timer,
   even while its tombstone is still queued. *)

type event =
  | Call of (unit -> unit)
  | Apply : ('a -> unit) * 'a -> event
  | Timer of { mutable live : bool; mutable fn : unit -> unit }

(* always a [Timer] *)
type timer = event

let noop () = ()

(* shared sentinel for vacated ring slots *)
let noop_event = Call noop

(* A handle that is already cancelled. [cancel] only writes to a live
   timer and this one is never queued, so sharing it is safe. *)
let no_timer = Timer { live = false; fn = noop }

type t = {
  mutable now : float;
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

let create () =
  {
    now = 0.0;
    seq = 0;
    executed = 0;
    dead = 0;
    queue = Heap.create ();
    ring = [||];
    ring_seq = [||];
    head = 0;
    len = 0;
  }

let now t = t.now

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
  if time <= t.now then ring_push t seq ev
  else Heap.push t.queue ~priority:time ~seq ev

let schedule_at t ~time f = push_event t ~time (Call f)

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  push_event t ~time:(t.now +. delay) (Call f)

let schedule_apply t ~delay f x =
  if delay < 0.0 then invalid_arg "Engine.schedule_apply: negative delay";
  push_event t ~time:(t.now +. delay) (Apply (f, x))

let schedule_timer t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_timer: negative delay";
  let tm = Timer { live = true; fn = f } in
  push_event t ~time:(t.now +. delay) tm;
  tm

let cancel t = function
  | Timer tm when tm.live ->
      tm.live <- false;
      (* release the callback now; the tombstone is swept at pop *)
      tm.fn <- noop;
      t.dead <- t.dead + 1
  | Timer _ | Call _ | Apply _ -> ()

(* Run a popped event. A dead timer is a tombstone: it is dropped
   without counting as executed, and the caller moves on. *)
let[@inline] run_event t = function
  | Call f ->
      t.executed <- t.executed + 1;
      f ();
      true
  | Apply (f, x) ->
      t.executed <- t.executed + 1;
      f x;
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

(* Execute the next live event no later than [limit]. The next event is
   the minimum of the queue front and the ring head by [(time, seq)];
   ring entries sit at the current time. *)
let rec exec_next t ~limit =
  if t.len > 0 then begin
    let heap_first =
      (not (Heap.is_empty t.queue))
      && Heap.min_before t.queue ~priority:t.now ~seq:t.ring_seq.(t.head)
    in
    if heap_first then exec_heap t ~limit
    else if t.now > limit then false
    else run_event t (ring_pop t) || exec_next t ~limit
  end
  else if not (Heap.is_empty t.queue) then exec_heap t ~limit
  else false

and exec_heap t ~limit =
  let time = Heap.min_priority t.queue in
  if time > limit then false
  else
    match Heap.pop_exn t.queue with
    | Timer { live = false; _ } ->
        t.dead <- t.dead - 1;
        exec_next t ~limit
    | ev ->
        t.now <- time;
        run_event t ev

let step t = exec_next t ~limit:infinity

let run ?until t =
  let limit = match until with Some l -> l | None -> infinity in
  while exec_next t ~limit do
    ()
  done;
  match until with Some limit when limit > t.now -> t.now <- limit | _ -> ()

let pending t = Heap.length t.queue + t.len - t.dead

let executed t = t.executed
