(** The §3.3 non-blocking commitment protocol (internal; selected per
    commit call through {!Tranman.commit}): three message phases, two
    forced log records per site, quorum-based decisions, and
    coordinator takeover by timed-out subordinates. A single site crash
    or partition never blocks every site; two or more failures may —
    which is optimal (Skeen; Dwork & Skeen). *)

(** Run the protocol as the original coordinator for a top-level
    family, once its local servers voted yes ([local_ro]: all
    read-only) and at least one subordinate exists ({!Tranman.commit}
    handles the rest); blocks (on a worker thread) until the outcome is
    decided or adopted from a takeover coordinator. *)
val coordinate : State.t -> State.family -> local_ro:bool -> Protocol.outcome

(** Finish the transaction as a takeover coordinator (§3.3 change 2):
    poll every participant's status; adopt any decided outcome; commit
    on a visible commit quorum of replication records; otherwise
    assemble an abort quorum of forced refusals; if neither quorum is
    reachable, retry until the situation changes. The decision is
    applied and propagated by {!Subordinate.adopt}. Runs in the fiber
    the subordinate's takeover timer spawns when it fires; recovery
    re-arms that timer. *)
val takeover : State.t -> State.family -> unit
