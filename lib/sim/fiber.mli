(** Cooperative fibers on top of the event engine.

    A fiber is a simulated thread of control: it runs OCaml code in
    direct style and may block on virtual time ([sleep]) or on
    arbitrary wakeups ([suspend], used by mailboxes, locks, disks, the
    network). Fibers are implemented with OCaml 5 effect handlers; they
    never run in parallel, so no real synchronization is needed and
    simulations are deterministic.

    Every fiber may belong to a {!Group}. Killing a group cancels all
    its blocked fibers at their next suspension point — this is how
    site crashes are modelled.

    Blocking is the simulator's hottest path, so it allocates no
    closures: a [sleep] or [suspend] costs one block, its resumer,
    which is also the engine event that carries its wake-up and its
    node in its group's registrations ({!Engine.Wait}), and each fiber
    builds its effect handlers once. *)

(** Raised inside a fiber when its group is killed while it is blocked. *)
exception Cancelled

(** [Died (name, e)]: the fiber spawned as [name] raised [e]. Any
    exception other than {!Cancelled} that leaves a fiber body is
    wrapped this way and propagates out of the {!Engine.run} or
    {!Engine.step} call that was running the fiber, stopping the
    simulation there, as an exception from a raw engine event does. *)
exception Died of string * exn

(** A resumer completes a pending {!suspend} exactly once. *)
type 'a resumer

(** [resume r v] wakes the suspended fiber with [v]. Ignored if the
    fiber was already resumed or cancelled. *)
val resume : 'a resumer -> ('a, exn) result -> unit

(** Whether the suspended fiber is still waiting (not yet resumed, not
    cancelled by its group). Wait queues use this to skip dead entries
    so they never hand a permit or a message to a cancelled fiber. *)
val is_pending : 'a resumer -> bool

module Group : sig
  (** A kill-switch shared by a set of fibers (e.g. all processes of
      one simulated site incarnation). *)
  type t

  val create : unit -> t

  (** [kill t] cancels every fiber of the group currently blocked in
      [sleep]/[suspend] and prevents queued-but-unstarted fibers of the
      group from starting. Idempotent.

      A fiber whose wake-up is already queued when the group dies (its
      resumer fired earlier in the same instant) is not blocked any
      more, so it is not cancelled: it runs one more step, up to its
      next [sleep]/[suspend], which then raises {!Cancelled}. Code
      whose wait can end in a crash instant must check the site's
      incarnation before publishing anything, as the write-ahead log
      does for a platter write. *)
  val kill : t -> unit

  val killed : t -> bool

  (** A registration, for {!unregister}. *)
  type handle

  (** [register t hook] runs [hook] once when the group is killed (or
      never, if {!unregister}ed first); returns a handle for
      {!unregister}. This is how non-member fibers blocked on a reply
      from the group observe its death. Registering on an
      already-killed group does {e not} run the hook — check
      {!killed} first. A kill cancels the group's blocked fibers
      first, then runs the hooks, each in registration order, so a
      member waiting on a hook's reply dies of {!Cancelled}. *)
  val register : t -> (unit -> unit) -> handle

  (** Withdraw a registration in O(1). A no-op once the hook has run or
      was withdrawn. *)
  val unregister : handle -> unit
end

(** [spawn engine fn] queues [fn] to start as a fiber at the current
    virtual time. If [fn] raises anything but {!Cancelled}, the
    exception escapes the engine as {!Died}.
    @param group kill-switch the fiber joins for all its blocking calls
    @param name names the fiber in {!Died} (default ["fiber"]) *)
val spawn : Engine.t -> ?group:Group.t -> ?name:string -> (unit -> unit) -> unit

(** [run engine fn] spawns [fn], drives the engine until [fn] completes
    (other fibers may still be live) and returns [fn]'s result. An
    exception [fn] raises is re-raised as it is; one raised by another
    fiber meanwhile escapes as {!Died}.
    @raise Failure if the queue drains with the fiber still blocked
    (deadlock). *)
val run : Engine.t -> (unit -> 'a) -> 'a

(** Block the calling fiber for [d] milliseconds of virtual time. *)
val sleep : float -> unit

(** Reschedule the calling fiber at the current time, letting other
    ready events run first. *)
val yield : unit -> unit

(** Current virtual time as seen by the calling fiber. *)
val now : unit -> float

(** [suspend register] blocks until the resumer that [register]
    receives is invoked. [register] runs before blocking and typically
    stores the resumer in some wait queue. If the fiber's group is
    killed first, the fiber raises {!Cancelled} instead. If [register]
    raises, the fiber does: the exception escapes as {!Died} naming
    it, as if raised at the [suspend] call. *)
val suspend : ('a resumer -> unit) -> 'a

(** The engine driving the calling fiber. Lets library code schedule
    raw events without threading the engine everywhere. *)
val engine : unit -> Engine.t
