(** The recovery process: after a site failure it reads the durable log
    and instructs servers how to undo or redo the updates of
    interrupted transactions (paper §2).

    Protocol: the transaction manager first rebuilds its descriptors
    from the log ({!Camelot_core.Tranman.recover}), classifying every
    logged family as winner (commit record present), in doubt (prepared
    or quorum-joined but undecided), or loser (everything else —
    presumed abort). Then, per data server:

    - the value store is volatile: it restarts from the newest durable
      checkpoint's snapshot (empty without one), then every update
      above that checkpoint, plus the checkpoint's in-flight updates,
      is re-applied in log order;
    - losers' updates are undone in reverse log order;
    - in-doubt updates keep their values, regain their undo records and
      exclusive locks, and block new transactions until the inquiry
      loop (2PC) or takeover (non-blocking) resolves them.

    Call after the site restarts and the servers have been
    reattached.

    {b Partitioned replay} (Yao et al.): when [partitions] is given,
    the scanned window's updates are bucketed by
    [Hashtbl.hash (server ^ "/" ^ key) mod partitions]. A key's updates
    are its dependency chain, so they always share a bucket, and each
    bucket is replayed by its own fiber, charging
    [recovery_replay_cpu_ms] per record so independent buckets overlap
    across the site's processors. Verdict classification, lock
    re-acquisition for in-doubt updates, and the forward-redo /
    reverse-undo order are preserved per key, which makes the result
    identical to the sequential pass. [partitions = 1] is one bucket on
    the same machinery, so the replay CPU model is uniform across
    partition counts. Without [partitions], recovery is the sequential
    pass: no fibers, no CPU charges, the paper-reproduction
    behaviour. *)

(** Returns the transactions left in doubt (their watchdogs are
    running).
    @param partitions number of parallel replay fibers (default: the
    sequential pass)
    @raise Camelot_chaos.Killed if the site is killed while partitioned
    replay fibers are still running — retry after the next restart. *)
val run :
  ?partitions:int ->
  tranman:Camelot_core.Tranman.t ->
  log:Camelot_core.Record.t Camelot_wal.Log.t ->
  servers:Camelot_server.Data_server.t list ->
  unit ->
  Camelot_core.Tid.t list
