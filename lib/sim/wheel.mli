(** Calendar-queue timer queue: a rotating window of fixed-width
    buckets, each a small {!Heap} keyed by [(priority, seq)], with a
    single overflow heap for events beyond the window.

    Drop-in replacement for the engine's monolithic event heap. Pushes
    and pops touch a heap of one bucket's occupancy (the pending
    population divided by the bucket count) instead of the whole
    population, which is the difference between O(log n) and near-O(1)
    once millions of timers are pending.

    Ordering is {e exact}: elements pop in the same global
    [(priority, seq)] order a single heap would produce, so an engine
    backed by a wheel replays the identical event schedule. *)

type 'a t

(** [create ()] is an empty wheel.
    @param width bucket span in engine time units (default 0.5 ms)
    @param buckets materialized window size (default 4096 buckets, so
    the window covers [width * buckets] time units; events further out
    sit in the overflow heap until the window rotates over them). *)
val create : ?width:float -> ?buckets:int -> unit -> 'a t

(** Total elements pending, overflow included. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t ~priority ~seq v] inserts [v]. Priorities may be arbitrary
    (not monotone): an element older than the current window joins the
    current bucket, whose internal heap orders it exactly. *)
val push : 'a t -> priority:float -> seq:int -> 'a -> unit

(** [pop t] removes and returns the minimum element by
    [(priority, seq)], or [None] if empty. *)
val pop : 'a t -> 'a option

(** @raise Invalid_argument if the wheel is empty. *)
val pop_exn : 'a t -> 'a

(** Priority of the minimum element.
    @raise Invalid_argument if the wheel is empty. *)
val min_priority : 'a t -> float

(** Whether the minimum element orders strictly before
    [(priority, seq)]; allocation-free, as {!Heap.min_before}.
    @raise Invalid_argument if the wheel is empty. *)
val min_before : 'a t -> priority:float -> seq:int -> bool
