(** 4-ary min-heap keyed by [(priority, sequence)] pairs.

    The sequence number breaks priority ties so that elements with equal
    priority pop in insertion order — the property the event queue needs
    for deterministic simulation.

    The implementation keeps priorities, sequence numbers and values in
    separate flat arrays (so comparisons stay unboxed) and sifts with a
    migrating hole — one store per level instead of a swap. Vacated
    slots are cleared on [pop], so values popped or displaced from the
    heap do not linger reachable from its backing store. *)

type 'a t

(** [create ()] is an empty heap. *)
val create : unit -> 'a t

(** Number of elements currently stored. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t ~priority ~seq v] inserts [v]. *)
val push : 'a t -> priority:float -> seq:int -> 'a -> unit

(** [pop t] removes and returns the minimum element, or [None] if empty. *)
val pop : 'a t -> 'a option

(** [pop_exn t] removes and returns the minimum element.
    @raise Invalid_argument if the heap is empty. *)
val pop_exn : 'a t -> 'a

(** Priority of the minimum element.
    @raise Invalid_argument if the heap is empty. *)
val min_priority : 'a t -> float

(** [min_before t ~priority ~seq] is whether the minimum element orders
    strictly before [(priority, seq)]. It answers the question without
    returning a float, so it allocates nothing.
    @raise Invalid_argument if the heap is empty. *)
val min_before : 'a t -> priority:float -> seq:int -> bool

(** Remove every element. *)
val clear : 'a t -> unit

(** [isheap t] validates the structural invariants: every child ordered
    after its parent by [(priority, seq)], and every vacated slot
    cleared (mirrors the FasterHeaps [isheap] test hook). *)
val isheap : 'a t -> bool
