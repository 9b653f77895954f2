(** Subordinate-side handling of commit-protocol messages, shared by
    all four commit protocols (internal; messages reach these handlers
    through {!Tranman}'s dispatcher, on worker threads). Also home of
    the Paxos Commit acceptor, short-commit's early lock release and
    the takeover coordinators' {!adopt}. *)

(** Apply a commit at this site. Under presumed abort
    ({!State.presumption} of the family's protocol) the §4.2 write
    variant decides whether the commit record is forced and how the
    commit-ack reaches [ack_to] (the original or a takeover
    coordinator); under presumed commit the record is spooled and no
    ack is sent. *)
val apply_commit : State.t -> State.family -> ack_to:Camelot_mach.Site.id -> unit

(** Undo the family locally. The abort record is lazy, except that a
    prepared family whose protocol presumes commit forces it and
    acknowledges the abort to the coordinator. *)
val apply_abort : State.t -> State.family -> unit

(** [adopt st fam outcome]: a takeover coordinator (non-blocking or
    Paxos Commit) applies the outcome it decided, forcing this site's
    commit record first when it commits an unresolved family, then
    sends the outcome notice to every other participant, and once more
    [outcome_retry_ms] later from an engine timer. A peer that misses
    both inquires. *)
val adopt : State.t -> State.family -> Protocol.outcome -> unit

(** {1 Waiting for the coordinator}

    A subordinate family waits for its coordinator on one protocol
    timer, [f_watchdog], an engine timer
    ({!Camelot_mach.Site.after}) rather than a sleeping fiber: the
    orphan inquiry while it is joined but unprepared, then the inquiry
    or the takeover. Both functions below arm that slot without
    cancelling what it holds: {!Tranman} cancels it when it arms at
    prepare or at restart, and arms the orphan inquiry only into an
    empty slot. {!State.resolve_family} disarms it, and a crash
    silences it (the expiry of a dead incarnation is dropped;
    {!Tranman.recover} re-arms the in-doubt families'). *)

(** [inquire_every st fam ~orphan] sends the coordinator an inquiry,
    counted in [n_inquiries], every period while the family still
    waits. With [~orphan:true] (the §2 abort-protocol rule for a
    family a server joined that never prepared) the period is
    [orphan_timeout_ms] and the wait ends once the family resolves,
    prepares or votes read-only: presumed abort frees its locks if the
    client or coordinator died. With [~orphan:false] (the 2PC window
    of vulnerability) the period is [subordinate_timeout_ms] and the
    wait ends once the family resolves. *)
val inquire_every : State.t -> State.family -> orphan:bool -> unit

(** Non-blocking and Paxos Commit: after [subordinate_timeout_ms] of
    silence, spawn a site fiber that becomes a (recovery) coordinator
    if the family is still unresolved ([takeover] is
    {!Nonblocking.takeover} or {!Paxos_commit.takeover}, passed in by
    the dispatcher to avoid a module cycle). No fiber exists before
    the timer fires. *)
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

(** Vote on a prepare. A yes vote that is not read-only forces the
    prepare record, votes, then calls [arm_watchdog] on the family: the
    dispatcher passes [Tranman.arm_watchdog], which picks the
    protocol's watchdog (passed in to avoid a module cycle with the
    takeover coordinators). *)
val handle_prepare :
  State.t -> Protocol.t -> arm_watchdog:(State.t -> State.family -> unit) -> unit

val handle_paxos_accept : State.t -> Protocol.t -> unit
val handle_paxos_prepare : State.t -> Protocol.t -> unit

val handle_replicate : State.t -> Protocol.t -> unit

(** Apply an outcome notice to an unresolved family. A duplicate, or a
    notice for a family this site forgot or never saw, is acknowledged
    when the notice's protocol acknowledges that outcome
    ({!State.presumption}); a notice contradicting a resolved family
    counts heuristic damage. *)
val handle_outcome : State.t -> Protocol.t -> unit

val handle_inquiry : State.t -> Protocol.t -> unit
val handle_join_abort_quorum : State.t -> Protocol.t -> unit
val handle_child_finish : State.t -> Protocol.t -> unit

(** A status reply arriving outside any takeover collection resolves a
    blocked subordinate: a decisive answer from anyone, or "unknown"
    from the coordinator of a 2PC or short-commit family, which
    implies the protocol's presumed outcome. *)
val handle_status : State.t -> Protocol.t -> unit
