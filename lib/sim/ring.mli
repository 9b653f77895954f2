(** Growable circular FIFO buffer.

    Allocation-free per element in steady state, unlike [Queue.t] which
    allocates a cell per [add]. Used for the simulator's wait queues,
    mailbox payloads and the engine's same-instant event lane. Vacated
    slots are cleared, so popped elements do not stay reachable from
    the buffer. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** Append at the tail. *)
val push : 'a t -> 'a -> unit

(** Remove the head element.
    @raise Invalid_argument if empty. *)
val pop_exn : 'a t -> 'a

val pop_opt : 'a t -> 'a option

(** FIFO-order iteration over current contents. *)
val iter : ('a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** Remove every element (and release the backing store). *)
val clear : 'a t -> unit
