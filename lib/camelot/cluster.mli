(** One-call construction of a simulated Camelot cluster: the engine, a
    lossless token-ring LAN, [n] sites each running the four Camelot
    processes (disk manager = the log + flusher, communication manager
    = the RPC and site-tracking hooks, transaction manager, recovery
    process) and one or more data servers.

    Typical use:

    {[
      let c = Cluster.create ~sites:2 () in
      Camelot_sim.Fiber.run (Cluster.engine c) (fun () ->
          let tm = Cluster.tranman c 0 in
          let tid = Tranman.begin_transaction tm in
          let _ = Cluster.op c ~origin:0 tid ~site:1 (Add ("x", 5)) in
          Tranman.commit tm tid)
    ]} *)

open Camelot_core

type node = {
  site : Camelot_mach.Site.t;
  log : Record.t Camelot_wal.Log.t;
  tranman : Tranman.t;
  mutable servers : Camelot_server.Data_server.t list;
}

type t

(** How each site's log writes forces out ({!Camelot_wal.Log.policy}).
    [Unbatched] is the default and what the paper's latency tables
    run: one platter write per force. [Group_commit] is leader/follower
    batching with a fixed window. [Adaptive] routes forces through the
    pipelined logger daemon: LSN-ordered wakeups, a collect window
    sized from the observed force arrival rate, and batched record
    serialization. *)
type logger = Camelot_wal.Log.policy =
  | Unbatched
  | Group_commit of { window_ms : float }
  | Adaptive

(** [create ~sites ()] builds the cluster.
    @param seed deterministic seed (default 1)
    @param model cost model (default {!Camelot_mach.Cost_model.rt})
    @param config TranMan configuration applied to every site (each
    site gets its own mutable copy; see {!config}/{!each_config})
    @param servers_per_site data servers per site (default 1)
    @param logger log write-out policy (default [Unbatched]). The
    background flusher or daemon runs every [max 50 (4 * log_force_ms)]
    ms, so it never competes with foreground forces.
    @param checkpoint_every automatic checkpointer: checkpoint and
    truncate a site's log whenever it holds at least this many records
    (default: no automatic checkpoints)
    @param recovery_partitions replay fibers used by {!restart_site}.
    Given [k], recovery buckets the log by (server, key) into [k]
    partitions replayed in parallel, each charging replay CPU (see
    {!Camelot_recovery.Recovery.run}). Omitted: the paper's sequential
    pass.
    @param lock_timeout_ms bound data-server lock waits: a transaction
    waiting longer aborts with [Lock_timeout] instead of blocking
    forever (default: wait forever — the paper-reproduction behavior) *)
val create :
  ?seed:int ->
  ?model:Camelot_mach.Cost_model.t ->
  ?config:State.config ->
  ?servers_per_site:int ->
  ?logger:logger ->
  ?checkpoint_every:int ->
  ?recovery_partitions:int ->
  ?lock_timeout_ms:float ->
  sites:int ->
  unit ->
  t

(** The one event engine every site runs on. *)
val engine : t -> Camelot_sim.Engine.t

(** The token ring every site sends on. *)
val lan : t -> Camelot_net.Lan.t

(** [[lan t]]: kept for callers that sum traffic counters over a list
    of LANs. *)
val lans : t -> Camelot_net.Lan.t list

val sites : t -> int
val node : t -> int -> node
val tranman : t -> int -> Tranman.t
val log : t -> int -> Record.t Camelot_wal.Log.t

(** [server c site] is the site's first data server;
    [server c ~index:i site] its [i]-th. *)
val server : t -> ?index:int -> int -> Camelot_server.Data_server.t

(** The per-site TranMan configuration (a copy per site). *)
val config : t -> int -> State.config

(** Apply a mutation to every site's configuration. *)
val each_config : t -> (State.config -> unit) -> unit

(** [op c ~origin tid ~site o] performs a data operation on behalf of
    [tid] (whose coordinator is [origin]'s TranMan) at [site]'s first
    server — through the communication manager, so costs and the used
    site list are accounted.
    @param index choose another server at the site. *)
val op :
  t ->
  origin:int ->
  Tid.t ->
  site:int ->
  ?index:int ->
  Camelot_server.Data_server.op ->
  int

(** [checkpoint c site] forces a checkpoint record (committed value
    snapshot, in-flight updates, live family images) into the site's
    log and — unless [~truncate:false] — drops the log below it, so
    recovery scans O(window) records and the dropped history is
    un-pinned. Must run inside a fiber (it forces the log). *)
val checkpoint : ?truncate:bool -> t -> int -> unit

(** {1 Failure injection} *)

(** Fail-stop crash: kills the site's fibers, stops message delivery,
    loses the volatile log tail. *)
val crash_site : t -> int -> unit

(** Restart after a crash: new incarnation, TranMan and servers
    rebuilt, recovery replays the durable log. Returns the transactions
    still in doubt. *)
val restart_site : t -> int -> Tid.t list

(** Partition the network into groups (see {!Camelot_net.Lan.partition}). *)
val partition : t -> int list list -> unit

val heal : t -> unit

(** Run the engine until quiescence (or [until]). *)
val run : ?until:float -> t -> unit
