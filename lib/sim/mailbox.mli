(** Typed, unbounded mailboxes for fiber communication.

    Sends never block; receives block the calling fiber until a message
    is available (optionally with a virtual-time timeout). Messages are
    delivered in FIFO order and waiting receivers are served in FIFO
    order, preserving determinism. *)

type 'a t

val create : Engine.t -> 'a t

(** [send t v] enqueues [v], waking the oldest waiting receiver if any.
    Never blocks. *)
val send : 'a t -> 'a -> unit

(** [recv t] blocks the calling fiber until a message is available. *)
val recv : 'a t -> 'a

(** [recv_timeout t d] is [Some msg] if a message arrives within [d]
    milliseconds of virtual time, else [None]. *)
val recv_timeout : 'a t -> float -> 'a option

(** [try_recv t] pops a queued message without blocking. *)
val try_recv : 'a t -> 'a option

(** Number of fibers currently blocked in [recv]/[recv_timeout]. *)
val waiters : 'a t -> int

(** Discard all queued messages. *)
val clear : 'a t -> unit
