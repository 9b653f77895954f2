(** The recovery process: after a site failure it reads the durable log
    and instructs servers how to undo or redo the updates of
    interrupted transactions (paper §2).

    Protocol: the transaction manager first rebuilds its descriptors
    from the log ({!Camelot_core.Tranman.recover}), which classifies
    every logged family once: committed (commit record present), in
    doubt (prepared or quorum-joined but undecided; the list it
    returns), or aborted (everything else — presumed abort). Each
    update takes its verdict from that classification: a committed
    family's updates are redone, a listed family's are held in doubt,
    and every other family's are undone. The same pass over the log
    returns the window value replay needs, so recovery reads the log
    once. Then, per data server:

    - the value store is volatile: it restarts from the newest durable
      checkpoint's snapshot (empty without one), then the checkpoint's
      in-flight updates and every update above it are re-applied in
      log order;
    - aborted families' updates are undone in reverse log order;
    - in-doubt updates keep their values, regain their undo records and
      exclusive locks, and block new transactions until the inquiry
      loop (2PC) or takeover (non-blocking, Paxos) resolves them.

    Call after the site restarts and the servers have been
    reattached.

    {b Partitioned replay} (Yao et al.): the scanned window's updates
    are bucketed by [Hashtbl.hash (server ^ "/" ^ key) mod partitions].
    A key's updates are its dependency chain, so they always share a
    bucket, and each bucket is replayed by its own fiber, charging
    [recovery_replay_cpu_ms] per record so independent buckets overlap
    across the site's processors. The forward-redo / reverse-undo order
    is the log order restricted to each key, so every partition count
    rebuilds the same state. The default, one partition, is the
    paper's single totally-ordered pass on the same machinery. *)

(** Returns the transactions left in doubt (their watchdog timers are
    armed).
    @param partitions number of parallel replay fibers (default 1)
    @raise Camelot_chaos.Killed if the site is killed while replay
    fibers are still running — retry after the next restart. *)
val run :
  ?partitions:int ->
  tranman:Camelot_core.Tranman.t ->
  servers:Camelot_server.Data_server.t list ->
  unit ->
  Camelot_core.Tid.t list
