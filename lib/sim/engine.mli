(** Discrete-event simulation engine.

    The engine owns a virtual clock (in milliseconds, matching the
    paper's unit of account) and a queue of pending events ordered by
    [(time, insertion order)]. All simulated concurrency — fibers,
    mailboxes, network transit, disk writes — bottoms out in it.
    Running the engine to quiescence is deterministic.

    A blocked fiber costs the engine one block: its {!Wait} event is at
    once the fiber's resumer ([Fiber.resumer]), the event that carries
    its wake-up, and its node in its fiber group's list of
    registrations ([Fiber.Group.handle]). *)

(** 4-ary min-heap keyed by [(priority, sequence)] pairs: the engine's
    timed lane, and the write-ahead log's LSN-ordered waiter queue.

    The sequence number breaks priority ties so that elements with
    equal priority pop in insertion order — the property the event
    queue needs for deterministic simulation.

    The implementation keeps priorities, sequence numbers and values in
    separate flat arrays (so comparisons stay unboxed) and sifts with a
    migrating hole — one store per level instead of a swap. Vacated
    slots are cleared on [pop], so values popped or displaced from the
    heap do not linger reachable from its backing store. It lives in
    this compilation unit so that the engine's calls inline and box no
    priority. *)
module Heap : sig
  type 'a t

  (** [create ()] is an empty heap. *)
  val create : unit -> 'a t

  (** Number of elements currently stored. *)
  val length : 'a t -> int

  val is_empty : 'a t -> bool

  (** [push t ~priority ~seq v] inserts [v]. *)
  val push : 'a t -> priority:float -> seq:int -> 'a -> unit

  (** [pop t] removes and returns the minimum element, or [None] if
      empty. *)
  val pop : 'a t -> 'a option

  (** [pop_exn t] removes and returns the minimum element.
      @raise Invalid_argument if the heap is empty. *)
  val pop_exn : 'a t -> 'a

  (** Priority of the minimum element.
      @raise Invalid_argument if the heap is empty. *)
  val min_priority : 'a t -> float

  (** [min_before t ~priority ~seq] is whether the minimum element
      orders strictly before [(priority, seq)]. It answers the question
      without returning a float, so it allocates nothing.
      @raise Invalid_argument if the heap is empty. *)
  val min_before : 'a t -> priority:float -> seq:int -> bool

  (** Remove every element. *)
  val clear : 'a t -> unit

  (** [isheap t] validates the structural invariants: every child
      ordered after its parent by [(priority, seq)], and every vacated
      slot cleared (mirrors the FasterHeaps [isheap] test hook). *)
  val isheap : 'a t -> bool
end

type t

(** An event. [schedule], [schedule_at] and [schedule_timer] build the
    [Call] and [Timer] events; [Fiber] builds the [Wait] and [Hook]
    blocks.

    - [Wait]: a fiber blocked on [k]. It may be queued twice: at its
      expiry, by {!expire} (a sleep's wake-up), and at its resumption,
      by {!resume}. [resumption] is the sequence number its resumption
      was queued with, or [-1] while the fiber still waits. Running the
      expiry of a pending wait queues its resumption with the [result]
      it holds; running a stale expiry (the wait was resumed earlier)
      does nothing; running the resumption continues [k] with [result].
      Both count as executed. [prev] and [next] link it into its
      group's registrations.
    - [Hook]: any other node of a group's registrations — a hook run
      when the group dies, or the list's head. Never queued. *)
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

(** [create ()] is a fresh engine with the clock at 0.0 ms. *)
val create : unit -> t

(** Current virtual time, in milliseconds. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at virtual time [now t +. delay].
    [delay] must be non-negative. Events with [delay = 0] take a FIFO
    fast path that bypasses the time-ordered heap; execution order is
    identical either way. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** A cancellable event. *)
type timer

(** [schedule_timer t ~delay f] is [schedule t ~delay f] returning a
    handle for {!cancel}. [f] runs as a raw event, outside any fiber:
    if it raises, the exception propagates out of {!run} or {!step}
    and stops the simulation, as a fiber body's does (wrapped as
    [Fiber.Died]). *)
val schedule_timer : t -> delay:float -> (unit -> unit) -> timer

(** [cancel t tm] cancels a timer armed on [t]. Cancelling before the
    timer fires guarantees its callback never runs and releases it
    immediately (its captured state becomes collectable); the queue
    slot itself is reclaimed lazily when it reaches the front.
    Cancelling twice, or after the timer fired, is a no-op. Cancelled
    timers do not count as executed events. *)
val cancel : t -> timer -> unit

(** A handle that is already cancelled: a placeholder for "no timer
    armed", which {!cancel} ignores. *)
val no_timer : timer

(** [schedule_at t ~time f] runs [f] at absolute virtual [time]; if
    [time] is in the past it runs at the current time. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** {1 Fiber waits} *)

(** [expire t ~delay w] queues the expiry of the wait [w] [delay] ms
    from now. [delay] must be non-negative.
    @raise Invalid_argument if [w] is not a [Wait]. *)
val expire : t -> delay:float -> event -> unit

(** [resume w] queues the resumption of the wait [w] at the current
    instant, with the result it holds, and unlinks [w] from its group.
    A no-op if [w] was resumed already. *)
val resume : event -> unit

(** The links of a node in no group: a node starts out with [prev] and
    [next] here, and {!unlink} puts them back here. *)
val detached : event

(** [append ~head n] links the detached node [n] last into the list
    that [head] heads. *)
val append : head:event -> event -> unit

(** [unlink n] takes [n] out of its list in O(1). A no-op on a detached
    node. *)
val unlink : event -> unit

(** The node after [n] in its list. *)
val next : event -> event

(** {1 Running} *)

(** [run t] processes events until the queue is empty.
    @param until stop once the clock would pass this time; remaining
    events stay queued. *)
val run : ?until:float -> t -> unit

(** [step t] executes the single next event. Returns [false] if the
    queue was empty. *)
val step : t -> bool

(** Number of live events waiting in the queue. Cancelled timers whose
    tombstones have not yet drained are excluded: the engine maintains
    [pending = queued slots - cancelled-but-undrained tombstones], so
    the count never inflates no matter how many timers are armed and
    cancelled without firing. *)
val pending : t -> int

(** Total number of events executed so far. *)
val executed : t -> int
