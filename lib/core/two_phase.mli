(** Coordinator side of presumed-abort two-phase commitment with the
    §3.2 delayed-commit-ack optimization, and of short-commit, the
    same coordinator with presumed commit and early lock release
    (internal; the public face is {!Tranman.commit}). The
    subordinate's behaviour under the three write variants lives in
    {!Subordinate}. *)

(** The shared "every vote is in, outcome not yet durable" fault point,
    hit by all four protocols' coordinators. *)
val p_votes_collected : string

(** The wholly read-only finish, shared by all four protocols'
    coordinators and {!commit_local}: drop the family's waiter
    mailbox, resolve it committed and drop its local locks. Nothing is
    logged and no second phase runs, so a family with remote sites is
    {!State.compact}ed at once; {!Tranman.commit} forgets a local one
    right after. *)
val finish_read_only : State.t -> State.family -> Protocol.outcome

(** Commit a local (no-subordinate) family: one forced commit record,
    or nothing at all ({!finish_read_only}) when read-only and the
    optimization is on. *)
val commit_local : State.t -> State.family -> read_only:bool -> Protocol.outcome

(** Abort at every known site, under the family protocol's
    {!State.presumption}. Presumed abort: the record is lazy, no acks
    are collected, the descriptor may be forgotten at once. Presumed
    commit: the record is forced and the abort is notified until
    acknowledged ({!start_notify}). *)
val abort_distributed :
  State.t -> State.family -> subs:Camelot_mach.Site.id list -> Protocol.outcome

(** Start the notify phase in the background: retransmit the outcome
    notice (default [Committed]) until every listed subordinate
    acknowledged, then write the End record and forget. Under presumed
    abort this handles commits; under presumed commit, aborts. Also
    used to resume notification during recovery and by the non-blocking
    protocol's decision point. *)
val start_notify :
  ?outcome:Protocol.outcome ->
  State.t ->
  State.family ->
  update_subs:Camelot_mach.Site.id list ->
  unit

(** Dispatcher hook: a commit-ack arrived. *)
val note_outcome_ack : State.t -> State.family -> from:Camelot_mach.Site.id -> unit

(** Mutable result of a vote-collection round. The laggard set lives
    in [pending.(0 .. n_pending-1)], in original [subs] order. *)
type votes = {
  pending : Camelot_mach.Site.id array;
  mutable n_pending : int;  (** how many still owe a vote *)
  mutable read_only_subs : Camelot_mach.Site.id list;
  mutable refused : bool;  (** somebody voted no *)
}

(** Collect votes from [subs] on the registered waiter mailbox,
    re-sending [prepare_msg] to laggards up to the configured retry
    budget. Shared with the non-blocking protocol's voting phase. *)
val collect_votes :
  State.t ->
  State.family ->
  Protocol.t Camelot_sim.Mailbox.t ->
  subs:Camelot_mach.Site.id list ->
  prepare_msg:Protocol.t ->
  votes

(** The decided-commit epilogue: force the commit record (the commit
    point), then notify/End per the family protocol's
    {!State.presumption} and release local locks off the completion
    path. Shared with Paxos Commit so
    the F = 0 degenerate case matches 2PC force-for-force and
    message-for-message. *)
val commit_decided :
  State.t ->
  State.family ->
  update_subs:Camelot_mach.Site.id list ->
  Protocol.outcome

(** Run the distributed commit of a top-level family whose protocol is
    [Two_phase] or [Short_commit], once its local servers voted yes
    ([local_ro]: all read-only) and at least one subordinate exists;
    {!Tranman.commit} handles a no vote and a local family. Blocks (on
    a worker thread) until the outcome is decided. A protocol that
    presumes commit forces a collecting record first; short-commit
    then drops the local locks (the [short.release.early] fault point)
    before the prepares go out. *)
val coordinate : State.t -> State.family -> local_ro:bool -> Protocol.outcome
