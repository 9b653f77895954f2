(** Discrete-event simulation engine.

    The engine owns a virtual clock (in milliseconds, matching the
    paper's unit of account) and a queue of pending events ordered by
    [(time, insertion order)]. All simulated concurrency — fibers,
    mailboxes, network transit, disk writes — bottoms out in
    [schedule]. Running the engine to quiescence is deterministic. *)

type t

(** [create ()] is a fresh engine with the clock at 0.0 ms. *)
val create : unit -> t

(** Current virtual time, in milliseconds. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at virtual time [now t +. delay].
    [delay] must be non-negative. Events with [delay = 0] take a FIFO
    fast path that bypasses the time-ordered heap; execution order is
    identical either way. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_apply t ~delay f x] is [schedule t ~delay (fun () -> f x)]
    without building the closure: the event holds [f] and [x] side by
    side. *)
val schedule_apply : t -> delay:float -> ('a -> unit) -> 'a -> unit

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
