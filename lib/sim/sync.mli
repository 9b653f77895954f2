(** Fiber-aware synchronization: mutexes, semaphores, and FCFS timed
    resources (the building block for simulated CPUs and disks). All
    wait queues are FIFO. *)

module Mutex : sig
  type t

  val create : unit -> t

  (** Block until the mutex is free, then take it. Not reentrant: a
      fiber locking a mutex it holds deadlocks — just like the
      spin-lock package of the paper's §3.4. *)
  val lock : t -> unit

  (** Release and wake the oldest waiter.
      @raise Invalid_argument if the mutex is not held. *)
  val unlock : t -> unit

  (** Whether some fiber holds the mutex. *)
  val locked : t -> bool

  (** [with_lock t f] is [f ()] bracketed by lock/unlock. *)
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Semaphore : sig
  type t

  (** [create n] has [n] initial permits. *)
  val create : int -> t

  val acquire : t -> unit
  val release : t -> unit
end

module Resource : sig
  (** A timed resource with one or more identical servers: simulated
      CPU (multiprocessors use [servers > 1]), disk arm, network
      interface. [use] queues FCFS, holds one server for the given
      duration of virtual time, and releases it. Tracks utilization
      statistics. *)
  type t

  (** @param servers number of identical servers (default 1). *)
  val create : ?servers:int -> Engine.t -> t

  (** Occupy the resource for [duration] ms (after queueing). A caller
      that wants the queueing delay reads the clock around the call;
      [use] reads it not at all, so it boxes no float. *)
  val use : t -> duration:float -> unit

  val servers : t -> int

  (** Servers currently held. *)
  val in_use : t -> int

  (** Total virtual time servers have been held (summed over servers). *)
  val busy_time : t -> float

  (** Number of completed [use] calls. *)
  val completions : t -> int

  (** Fibers currently queued (not counting the holder). *)
  val queue_length : t -> int
end
