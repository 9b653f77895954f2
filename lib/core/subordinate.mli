(** Subordinate-side handling of commit-protocol messages, shared by
    all four commit protocols (internal; messages reach these handlers
    through {!Tranman}'s dispatcher, on worker threads). Also home of
    the Paxos Commit acceptor and short-commit's early lock release. *)

(** Apply a commit at this site under the configured §4.2 write
    variant; the commit-ack goes to [ack_to] (the original or a
    takeover coordinator). *)
val apply_commit : State.t -> State.family -> ack_to:Camelot_mach.Site.id -> unit

(** Undo the family locally; the abort record is lazy (presumed
    abort). *)
val apply_abort : State.t -> State.family -> unit

val apply_outcome :
  State.t -> State.family -> Protocol.outcome -> ack_to:Camelot_mach.Site.id -> unit

(** {1 Watchdogs}

    Each watchdog is an engine timer ({!Camelot_mach.Site.after}), not
    a sleeping fiber: a family holds at most one in [f_watchdog] and
    one in [f_orphan_watch], arming one that is already armed is a
    no-op, {!State.resolve_family} disarms both, and a crash silences
    them (the expiry of a dead incarnation is dropped;
    {!Tranman.recover} re-arms the in-doubt families'). *)

(** 2PC window of vulnerability: while the family is unresolved, send
    an inquiry to the coordinator every [subordinate_timeout_ms],
    counted in [n_inquiries]. Arms [f_watchdog]. *)
val start_inquiry_watchdog : State.t -> State.family -> unit

(** Orphan detection (the §2 abort-protocol rule): a subordinate family
    joined by a server but never prepared inquires every
    [orphan_timeout_ms] until it prepares, votes read-only or
    resolves; presumed abort then frees its locks if the client or
    coordinator died. Arms [f_orphan_watch]; a resolved family arms
    nothing. *)
val start_orphan_watchdog : State.t -> State.family -> unit

(** Non-blocking and Paxos Commit: after [subordinate_timeout_ms] of
    silence, spawn a site fiber that becomes a (recovery) coordinator
    if the family is still unresolved ([takeover] is
    {!Nonblocking.takeover} or {!Paxos_commit.takeover}, passed in by
    the dispatcher to avoid a module cycle). Arms [f_watchdog]; no
    fiber exists before the timer fires. *)
val start_takeover_watchdog :
  State.t -> State.family -> takeover:(State.t -> State.family -> unit) -> unit

(** {1 Paxos Commit acceptor} *)

(** Phase 2a: accept (instance, ballot, vote) unless a higher ballot
    was promised, log the acceptance (forced except in the sole
    self-acceptor F = 0 case), and report phase 2b to [leader] — by
    local mailbox hand-off when [leader] is this site. *)
val paxos_do_accept :
  State.t ->
  State.family ->
  instance:Camelot_mach.Site.id ->
  ballot:int ->
  vote:Protocol.vote ->
  leader:Camelot_mach.Site.id ->
  unit

(** Phase 1a: force a promise for [ballot] (unless outballoted) and
    answer phase 1b with every acceptance to [from]. *)
val paxos_do_promise :
  State.t -> State.family -> ballot:int -> from:Camelot_mach.Site.id -> unit

(** Cast this participant's vote as ballot-0 phase-2a messages to every
    acceptor (the self-acceptance, if any, is a direct local call). *)
val paxos_cast_vote : State.t -> State.family -> vote:Protocol.vote -> unit

(** {1 Message handlers} — each takes the raw message and raises
    [Invalid_argument] on a constructor it does not own. *)

val handle_prepare :
  State.t ->
  Protocol.t ->
  takeover:(State.t -> State.family -> unit) ->
  paxos_takeover:(State.t -> State.family -> unit) ->
  unit

val handle_paxos_accept : State.t -> Protocol.t -> unit
val handle_paxos_prepare : State.t -> Protocol.t -> unit

val handle_replicate : State.t -> Protocol.t -> unit
val handle_outcome : State.t -> Protocol.t -> unit
val handle_inquiry : State.t -> Protocol.t -> unit
val handle_join_abort_quorum : State.t -> Protocol.t -> unit
val handle_child_finish : State.t -> Protocol.t -> unit

(** A status reply arriving outside any takeover collection resolves a
    blocked subordinate (decisive answers from anyone; "unknown" only
    from the coordinator under presumed abort). *)
val handle_status : State.t -> Protocol.t -> unit
