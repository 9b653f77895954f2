(** Gray & Lamport's Paxos Commit (internal; selected per commit call
    through {!Tranman.commit}): every participant's vote is a ballot-0
    Paxos instance decided by 2F+1 acceptors, so any prepared
    participant can finish the commit at a higher ballot after the
    coordinator dies. F = 0 keeps the sole acceptor co-located with
    the coordinator and provably collapses to 2PC's message and force
    counts. *)

(** Run the protocol as the original coordinator (the leader of every
    instance at ballot 0), once the local servers voted yes
    ([local_ro]: all read-only) and at least one subordinate exists
    ({!Tranman.commit} handles the rest); blocks (on a worker thread)
    until the outcome is decided. Silence after the retry budget
    escalates to a ballot > 0 resolution through the acceptors — never
    a unilateral timeout-abort, which could race a committing
    takeover. *)
val coordinate : State.t -> State.family -> local_ro:bool -> Protocol.outcome

(** Finish the transaction as a recovery coordinator: phase 1 at a
    proposer-tagged ballot, re-propose every instance (the
    highest-ballot acceptance seen by a promise quorum, or a no-vote),
    decide on phase-2b quorums, then apply and propagate
    ({!Subordinate.adopt}). Runs in the fiber
    the subordinate's takeover timer spawns when it fires; recovery
    re-arms that timer. *)
val takeover : State.t -> State.family -> unit
