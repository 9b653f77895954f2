(** The common stable-storage write-ahead log of one site.

    In Camelot the disk manager is the single point of access to the
    log and batches log records there (§3.5 "log batching" / group
    commit). This module reproduces that behaviour:

    - [append] spools a record into the volatile tail — free;
    - [force] blocks the calling fiber until every record spooled so
      far is durable. The disk is a serial resource taking
      [log_force_ms] per write, capping an unbatched log at
      ~1000/[log_force_ms] forces per second — the paper's "no more
      than about 30 log writes per second" argument;
    - how forces reach the platter is the log's write-out {!policy}:
      one write per force, {b group commit} (one disk write satisfies
      every force pending at the moment the write starts, plus
      optionally a batching window timer as in the IMS/Fast-Path and
      TMF designs the paper cites), or the {b logger daemon} (the
      daemon drains all pending force targets into one platter write
      and lets the next batch spool and serialize while the write's
      I/O is in flight);
    - under every policy, a fiber waiting for durability parks on one
      LSN-ordered waiter heap, and a platter write wakes exactly the
      waiters it made durable, lowest LSN first: never a broadcast;
    - a site {b crash} discards the volatile tail; the durable prefix
      survives and is what recovery reads. A platter write still in
      flight when its site dies (or dies and restarts) is lost with it,
      even when it would complete in the crash instant;
    - {b truncation} drops the durable prefix below a checkpoint so
      recovery scans and memory stay O(window), not O(history).

    The record payload is a type parameter: the transaction manager
    defines its own record type ([camelot_core.Record]). *)

type 'a t

(** Log sequence number: index of a record, starting at 0. LSNs are
    stable across {!truncate}: truncation advances {!base_lsn} without
    renumbering the surviving records. *)
type lsn = int

(** How forces reach the platter (§3.5 log batching).
    - [Unbatched]: every force is its own disk write, serialized on the
      platter — the paper's "no more than about 30 log writes per
      second" strawman.
    - [Group_commit { window_ms }]: leader/follower batching. The first
      force of a batch becomes the leader, waits [window_ms] (or, at
      [0], one same-instant yield) for companions to spool, and one
      write covers them all. A force that finds a write in flight
      follows it: it parks until that write lands, then returns if the
      write covered it, or else leads the next one.
    - [Adaptive]: the pipelined logger daemon (see {!start}). Forces
      park on an LSN-ordered heap; the daemon lingers about one
      observed force inter-arrival gap (at most [log_force_ms / 4],
      zero at low load) before handing the batch to the writer, and
      charges the per-record spool CPU in one batched serialization
      pass ([log_daemon_pass_cpu_ms] + [log_spool_batch_cpu_ms] x
      records) instead of on the foreground appender. *)
type policy = Unbatched | Group_commit of { window_ms : float } | Adaptive

(** [create site] builds the site's log using its cost model's
    [log_force_ms].
    @param policy write-out policy (default [Unbatched]). Forces under
    [Adaptive] complete only once {!start} has run (and again after
    each site restart). *)
val create : ?policy:policy -> Camelot_mach.Site.t -> 'a t

(** Spool a record into the volatile tail; returns its LSN. *)
val append : 'a t -> 'a -> lsn

(** A data server's {!append}: the calling fiber first pays the site's
    [log_spool_cpu_ms] for copying the record into the log buffer,
    except under [Adaptive], whose daemon charges the copy in batches.
    Must run in a fiber. *)
val spool : 'a t -> 'a -> lsn

(** Block until all currently-spooled records are durable. Must run in
    a fiber. *)
val force : 'a t -> unit

(** [append] then [force]. Returns the record's LSN. *)
val append_force : 'a t -> 'a -> lsn

(** Highest spooled LSN ([base_lsn - 1] if none). *)
val tail_lsn : 'a t -> lsn

(** Highest durable LSN (-1 if none). *)
val durable_lsn : 'a t -> lsn

(** Lowest LSN still held (0 until the first {!truncate}). *)
val base_lsn : 'a t -> lsn

(** Random access to a held record.
    @raise Invalid_argument if [lsn < base_lsn] or [lsn > tail_lsn]. *)
val get : 'a t -> lsn -> 'a

(** Durable records at or above {!base_lsn}, oldest first, with their
    LSNs: what recovery sees after a crash. *)
val durable_records : 'a t -> (lsn * 'a) list

(** All held records including the volatile tail (for tests). *)
val all_records : 'a t -> (lsn * 'a) list

(** [iter_durable t f] applies [f lsn record] to each durable record
    from {!base_lsn} up, oldest first, without materialising a list —
    the allocation-free way to scan a long log. *)
val iter_durable : 'a t -> (lsn -> 'a -> unit) -> unit

(** [fold_durable t ~init ~f] folds over the held durable prefix,
    oldest first, without materialising a list. *)
val fold_durable : 'a t -> init:'acc -> f:('acc -> lsn -> 'a -> 'acc) -> 'acc

(** Number of held records, including the volatile tail. *)
val records_spooled : 'a t -> int

(** [truncate t ~keep_from] drops (and un-pins) every record below LSN
    [keep_from] — typically the LSN of a just-forced checkpoint record.
    Surviving records keep their LSNs; {!base_lsn} becomes [keep_from].
    No-op if [keep_from <= base_lsn t].
    @raise Invalid_argument if [keep_from > durable_lsn t + 1]: the
    volatile tail cannot be the only copy of history. *)
val truncate : 'a t -> keep_from:lsn -> unit

(** Checkpoint truncations performed. *)
val truncations : 'a t -> int

(** Simulate the crash of the site: the volatile tail is lost, parked
    waiters die with their fibers, daemon hand-off state resets. Called
    by the cluster's crash hook. *)
val crash : 'a t -> unit

(** Completed [force] calls. *)
val forces : 'a t -> int

(** Physical disk writes performed (= [forces] without group commit;
    fewer with). *)
val disk_writes : 'a t -> int

(** Logger batching/latency statistics (every policy's writes). *)
type batch_stats = {
  bs_writes : int;  (** physical writes that carried >= 1 record *)
  bs_records : int;  (** records covered by those writes *)
  bs_force_lat_n : int;  (** daemon-mode forces timed *)
  bs_force_lat_mean_ms : float;  (** mean daemon-mode force latency *)
}

val batch_stats : 'a t -> batch_stats

(** Block the calling fiber until the given LSN is durable (via anyone
    else's force or the background flusher). This is how a subordinate
    running the §3.2 optimized protocol learns its lazily-written
    commit record has hit the disk and the commit-ack may go out. The
    fiber parks on the LSN heap at its own LSN, under every policy,
    without triggering a write: a lazy record rides along with the next
    force or the periodic flush, and waiters wake lowest LSN first. *)
val wait_durable : 'a t -> lsn -> unit

(** Spawn the log's background fibers in the site's fiber group; call
    again after each site restart. They are pinned to the incarnation
    that spawned them and exit once the site crashes or restarts.
    - [Unbatched] and [Group_commit]: the disk manager's flusher. Every
      [flush_every] ms, if the volatile tail is non-empty and the disk
      idle, it writes the tail out.
    - [Adaptive]: the logger daemon, a controller and a writer fiber.
      The controller drains pending force targets, lingering for the
      adaptive window when the platter is idle, charges one batched
      serialization pass, and hands the batch to the writer. The writer
      issues one platter write per hand-off while the next batch spools
      (double buffering). After [flush_every] ms of idleness the
      unforced tail is flushed, as the flusher does.
    @raise Invalid_argument if [flush_every <= 0]. *)
val start : 'a t -> flush_every:float -> unit
