(** Queue-sharded execution for a site (Qadah's queue-oriented
    paradigm): work routed by key into per-shard FIFO queues, drained by
    a bounded set of executor fibers.

    Where the closed-loop rig spawns one worker fiber per in-flight
    transaction, a dispatcher keeps the fiber population fixed at
    [shards * executors_per_shard] regardless of offered load —
    open-loop overload turns into queue depth (visible as latency) and,
    when the chaos explorer denies the [dispatch.shard.enqueue] fault
    point, into explicit load-shedding, never into a fiber explosion.

    One shard with N executors is the TranMan's C-Threads pool (paper
    §3.4): N identical workers, none tied to a transaction, each taking
    any input from one queue. The pool size is the parameter Figures 4
    and 5 vary (1 / 5 / 20 threads).

    An executor runs its shard's jobs one at a time, oldest first, and
    parks when the queue is empty. It charges no CPU of its own: Table
    2's IPC and RPC costs already include the kernel's context switches
    ({!Cost_model.context_switch_us}).

    Executors run in the site's fiber group, and the queues belong to
    the same incarnation: a crash kills the executors, and the restart
    drops every job still queued from before the crash, then re-staffs
    the shards. A job runs in its executor's fiber: an exception it
    raises kills the executor and escapes the engine as
    {!Camelot_sim.Fiber.Died}, named after the executor
    (["dispatch-<shard>.<executor>"]), stopping the simulation. *)

type job = unit -> unit

type t

(** [create site] builds a dispatcher and spawns its executors into
    [site]'s current fiber group (default 4 shards, 1 executor each —
    one executor per shard gives serial per-shard execution, the
    queue-oriented determinism guarantee). *)
val create : ?shards:int -> ?executors_per_shard:int -> Site.t -> t

val shards : t -> int

(** Deterministic key → shard routing (Fibonacci hashing, so
    consecutive hot keys spread across shards). *)
val shard_of_key : t -> int -> int

(** [submit t ~shard job] enqueues [job] on [shard] (or hands it
    straight to an idle executor). Admission is unconditional: this is
    the path for a site's own internal work, such as TranMan requests. *)
val submit : t -> shard:int -> job -> unit

(** [submit_key t ~key job] is the admission path for offered load: it
    is [submit] to [shard_of_key t key], behind the
    [dispatch.shard.enqueue] fault point. Returns [false] — job
    dropped, {!shed} bumped — iff that fault point denies admission;
    always [true] outside chaos runs. *)
val submit_key : t -> key:int -> job -> bool

(** Jobs currently queued (excluding any running in executors). *)
val depth : t -> int

(** Jobs admitted so far (shed ones excluded). *)
val submitted : t -> int

(** Jobs that returned normally. *)
val completed : t -> int

(** Jobs dropped by the [dispatch.shard.enqueue] fault point. *)
val shed : t -> int

(** High-water mark of any single shard's queue depth. *)
val max_depth : t -> int
