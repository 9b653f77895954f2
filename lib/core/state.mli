(** Internal shared state of a transaction manager.

    Everything here is plumbing common to the commit protocols and the
    dispatcher; the supported public surface is {!Tranman}. The types
    are exposed concretely because {!Two_phase}, {!Nonblocking},
    {!Paxos_commit}, {!Subordinate} and {!Tranman} all manipulate
    them, and because tests and experiments tune {!config} fields
    directly. *)

open Camelot_sim
open Camelot_mach

(** Which outcome an inquiry about a forgotten transaction implies
    (Mohan & Lindsay). Camelot uses [Presume_abort]; [Presume_commit]
    is implemented as an extension: commit acknowledgements disappear,
    but the coordinator forces a collecting record before voting and
    aborts become forced and acknowledged. Each protocol's presumption
    is fixed by {!presumption}. *)
type presumption = Presume_abort | Presume_commit

(** The three §4.2 write-transaction protocol variants. [Optimized]:
    the subordinate drops locks before writing its commit record, the
    record is not forced, the ack is piggybacked once the record is
    durable. [Semi_optimized]: record forced, ack still piggybacked.
    [Unoptimized]: record forced, ack sent immediately as its own
    datagram. *)
type two_phase_variant = Optimized | Semi_optimized | Unoptimized

(** Per-TranMan configuration. All fields are mutable so experiments
    can flip knobs; [threads] is read once, when the TranMan is created,
    so a later change never resizes its pool. *)
type config = {
  mutable threads : int;
  mutable two_phase_variant : two_phase_variant;
  mutable presumption : presumption;
      (** 2PC's presumption; the other protocols' are fixed
          ({!presumption}) *)
  mutable multicast : bool;
  mutable read_only_optimization : bool;
  mutable vote_timeout_ms : float;
  mutable max_vote_retries : int;
  mutable outcome_retry_ms : float;
  mutable subordinate_timeout_ms : float;
  mutable takeover_retry_ms : float;
  mutable commit_quorum : int option;
  mutable orphan_timeout_ms : float;
  mutable unsafe_skip_prepare_force : bool;
      (** deliberate bug knob for the chaos explorer's self-test: spool
          the prepare record instead of forcing it *)
  mutable paxos_f : int;
      (** paxos commit: tolerated acceptor failures. The acceptor set is
          the first 2F+1 of coordinator :: participants; [0] keeps the
          sole acceptor co-located with the coordinator and collapses to
          2PC's message and force counts. *)
}

val default_config : ?threads:int -> unit -> config

(** An independent mutable copy (each site owns its configuration). *)
val copy_config : config -> config

(** What a data server plugs into its local transaction manager. *)
type server_callbacks = {
  sv_name : string;
  sv_vote : Tid.t -> Protocol.vote;
  sv_commit : Tid.t -> unit;
  sv_abort : Tid.t -> unit;
  sv_subcommit : Tid.t -> unit;
  sv_release : Tid.t -> unit;
      (** short-commit early release: drop the family's locks but keep
          its undo information (the outcome is still undecided) *)
}

(** Per-transaction descriptor inside a family. *)
type member = {
  mem_tid : Tid.t;
  mutable mem_resolved : Protocol.outcome option;
  mutable mem_children : int;
}

type role = Coordinator | Subordinate

(** Which quorum this site joined for a non-blocking transaction
    (§3.3 change 4: never both); {!Record.quorum_side}, which a
    checkpoint image carries. *)
type quorum_side = Record.quorum_side = Q_none | Q_commit | Q_abort

(** The family descriptor (§3.4): one per transaction family known at
    this site, with its own lock. The lock and the members table are
    built on first use ({!with_family_lock}, {!member}), so a family
    that never nests and never claims a quorum side carries neither. *)
type family = {
  f_root : Tid.t;
  f_role : role;
  mutable f_mutex : Sync.Mutex.t option;  (** see {!with_family_lock} *)
  f_top : member;  (** the root's own descriptor *)
  mutable f_members : (Tid.t, member) Hashtbl.t option;
      (** every member, root first; [None] until a nested member joins *)
  mutable f_servers : string list;
  mutable f_remote_sites : Site.id list;
  mutable f_protocol : Protocol.commit_protocol;
  mutable f_sites : Site.id list;
  mutable f_commit_quorum : int;
  mutable f_prepared : bool;
  mutable f_read_only_done : bool;
  mutable f_update_sites : Site.id list;
  mutable f_quorum_side : quorum_side;
  mutable f_outcome : Protocol.outcome option;
  mutable f_acks_pending : Site.id list;
  mutable f_ended : bool;
      (** an End record was written: no acknowledgement is outstanding,
          and {!log_end} has compacted the family *)
  mutable f_watchdog : Engine.timer;
      (** a subordinate's one protocol timer, for its one wait for the
          coordinator: the orphan inquiry while joined but unprepared,
          then, from prepare (or restart), the 2PC and short-commit
          inquiry or the non-blocking and Paxos takeover
          ({!Subordinate.inquire_every},
          {!Subordinate.start_takeover_watchdog}). Arming at prepare
          or restart cancels what it held. [Engine.no_timer] until
          armed; {!resolve_family} cancels it and resets it. *)
  mutable f_acceptors : Site.id list;  (** paxos: the 2F+1 acceptor set *)
  mutable f_pax_ballot : int;
      (** paxos acceptor: highest promised/accepted ballot (0 = the
          participants' own vote ballot) *)
  mutable f_pax_accepted : (Site.id * int * Protocol.vote) list;
      (** paxos acceptor: (instance, ballot, vote) acceptances *)
}

(** An outcome marker: all a resolved family keeps once its protocol
    has nothing left to do at this site ({!compact}). Immutable, and
    shared: there is one per outcome, protocol (2PC, short-commit,
    non-blocking) and role, twelve in all, allocated once. *)
type marker = {
  mk_outcome : Protocol.outcome;
  mk_protocol : Protocol.commit_protocol;
  mk_role : role;
}

(** What a read path learns of a family ({!view}): nothing, its
    unresolved record, or its outcome, read from the resolved record or
    its marker. *)
type view = Unknown | Open of family | Decided of Protocol.outcome

type stats = {
  mutable n_begun : int;
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_distributed : int;
  mutable n_takeovers : int;
  mutable n_inquiries : int;
  mutable n_heuristic : int;  (** operator-resolved blocked transactions *)
  mutable n_heuristic_damage : int;
      (** heuristic decisions later contradicted by the real outcome *)
}

type t = {
  site : Site.t;
  lan : Camelot_net.Lan.t;
  log : Record.t Camelot_wal.Log.t;
  config : config;
  directory : (Site.id, Protocol.t Camelot_net.Lan.endpoint) Hashtbl.t;
  mutable endpoint : Protocol.t Camelot_net.Lan.endpoint option;
  pool : Dispatch.t;
      (** the §3.4 worker pool: one shard with [config.threads]
          executors, created with the TranMan and kept across restarts *)
  families : (int, family) Hashtbl.t;
      (** the records, keyed by {!Tid.family_key} *)
  resolved : (int, marker) Hashtbl.t;
      (** the markers of compacted families, keyed the same way; a
          family is in at most one of the two tables *)
  servers : (string, server_callbacks) Hashtbl.t;
  mutable next_seq : int;
  waiters : (int, Protocol.t Mailbox.t) Hashtbl.t;
      (** keyed by {!Tid.family_key} *)
  stats : stats;
  trace : Trace.t;
}

val engine : t -> Engine.t

(** This site's id. *)
val me : t -> Site.id

(** Whether this TranMan's trace is recording. Hot call sites test it
    before [tracef], so a disabled trace costs one branch: applying
    [tracef] to its arguments builds closures even when nothing is
    recorded. *)
val tracing : t -> bool

val tracef : t -> string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** [defer st f] runs [f] as a raw event at the current instant,
    after the events already queued for it. A protocol timer's expiry
    defers its raw work this way, so it runs where a fiber the timer
    spawned would start: expiries due at the same instant then run in
    the order their timers were armed, whatever their kind. *)
val defer : t -> (unit -> unit) -> unit

(** Charge TranMan CPU for one protocol action (with a small
    exponential jitter modelling OS scheduling noise). *)
val charge_cpu : t -> unit

(** {1 Families} *)

val family_key : Tid.t -> int

(** [Some Committed] or [Some Aborted], both static constants. *)
val some_outcome : Protocol.outcome -> Protocol.outcome option

(** The family as paths that only read see it: a marker answers as
    the resolved record did, and neither is rebuilt. Allocates no more
    than the [Some] of a plain lookup. *)
val view : t -> Tid.t -> view

(** The family's record, for paths that may write it. A marker is
    turned back into a fresh resolved record (outcome, protocol and
    role; every other field blank), which replaces it in
    [families]. *)
val find_family : t -> Tid.t -> family option

val new_family : t -> root:Tid.t -> role:role -> protocol:Protocol.commit_protocol -> family

(** Find the family ({!find_family}), creating a subordinate-side
    descriptor on first contact. *)
val find_or_join_family : t -> Tid.t -> family

(** The compaction rule. [compact st fam] moves [fam] out of
    [families] and puts its {!marker} in [resolved] when [fam] is
    resolved and awaits no acknowledgement. Callers invoke it where
    the family's own protocol has nothing left to do here: a 2PC,
    short-commit or non-blocking coordinator at its End record
    ({!log_end}) or right after a presumed-abort abort, which writes
    none; a subordinate once its outcome is applied (a coordinator that
    adopts a takeover's outcome keeps its record, since its own commit
    may still be running); and {!Tranman.recover} once its decisions
    are made. Two kinds of family are never compacted: Paxos Commit
    families, because an acceptor may be asked to promise a higher
    ballot at any time and must answer from its accepted votes, and
    families with nested members, whose members table answers nested
    calls. A record whose family lock is held, or that is no longer in
    [families] (forgotten, or left over from a crashed incarnation), is
    left alone. A marker costs the family a table cell instead of its
    record: 2PC over two sites keeps 57 words per transaction instead
    of 120 ([test_txn]). *)
val compact : t -> family -> unit

(** The member's descriptor, created on first use. The root's is
    [f_top]; the first nested member builds the members table. *)
val member : family -> Tid.t -> member

(** Proper descendants of the root not yet committed or aborted, in
    members-table order. *)
val unresolved_children : family -> Tid.t list

(** [with_family_lock fam f] runs [f] under the family's lock, creating
    the lock on first use. *)
val with_family_lock : family -> (unit -> 'a) -> 'a

(** {1 Messaging} *)

val send : t -> dst:Site.id -> Protocol.t -> unit
val send_piggybacked : t -> dst:Site.id -> Protocol.t -> unit

(** Serialized unicasts, or one multicast when configured. *)
val fan_out : t -> dsts:Site.id list -> Protocol.t -> unit

(** [outcome_notice st fam o]: the [Outcome] message announcing [o]
    for [fam] from this site, under the family's protocol. *)
val outcome_notice : t -> family -> Protocol.outcome -> Protocol.t

val register_waiter : t -> Tid.t -> Protocol.t Mailbox.t
val unregister_waiter : t -> Tid.t -> unit
val waiter : t -> Tid.t -> Protocol.t Mailbox.t option

(** {1 Log} *)

val log_append : t -> Record.t -> Camelot_wal.Log.lsn
val log_append_force : t -> Record.t -> Camelot_wal.Log.lsn

(** {1 Local servers} *)

val server_callbacks : t -> string -> server_callbacks option

(** Combined vote of every joined local server (one IPC each). *)
val vote_local_servers : t -> family -> Protocol.vote

(** [tell_local_servers st fam tid call] sends every local server
    that joined [fam] one one-way message (one IPC each) and runs
    [call cb tid] with its callbacks [cb]. *)
val tell_local_servers :
  t -> family -> Tid.t -> (server_callbacks -> Tid.t -> unit) -> unit

(** One-way drop-locks message to every joined local server. *)
val drop_local_locks : t -> family -> unit

(** Short-commit early release: drop the family's locks at every
    joined local server, keeping undo information. *)
val release_local_locks : t -> family -> unit

(** Undo the family at every joined local server. *)
val abort_local : t -> family -> unit

(** {1 Status and resolution} *)

(** What this site knows about the family, read through {!view}: a
    marker answers [St_committed] or [St_aborted]. *)
val status_of_family : t -> Tid.t -> Protocol.status

(** Mark resolved (idempotent); updates statistics and disarms the
    family's protocol timer, so a resolved family leaves no pending
    event behind. The record stays until {!compact}. Allocates
    nothing. *)
val resolve_family : t -> family -> Protocol.outcome -> unit

(** Append a coordinator's End record (every acknowledgement is in),
    mark the family ended and {!compact} it. *)
val log_end : t -> family -> unit

val majority : int -> int

(** Configured or majority commit-quorum size over a domain. *)
val nb_quorum : t -> domain_size:int -> int

(** {1 The presumption rule} *)

(** [presumption st protocol] is what a forgotten coordinator implies
    for a family committed under [protocol]: [config.presumption] for
    [Two_phase], [Presume_commit] for [Short_commit] (its commit
    notices travel unacknowledged), and [Presume_abort] for
    [Nonblocking] and [Paxos_commit] (their takeovers, not a
    presumption, resolve an unknown family). It decides which records
    are forced and which outcome notices are acknowledged: under
    [Presume_abort] the commit is acknowledged, under [Presume_commit]
    the abort, and a protocol that presumes commit forces a collecting
    record before its prepares. *)
val presumption : t -> Protocol.commit_protocol -> presumption

(** [recv_until st mb ~timeout_ms ~until handle] drains [mb] into
    [handle] until [until ()] holds or [timeout_ms] of virtual time
    has passed since the call, whichever comes first. [until] is
    checked before every receive, so a drain that starts satisfied
    receives nothing. *)
val recv_until :
  t ->
  Protocol.t Mailbox.t ->
  timeout_ms:float ->
  until:(unit -> bool) ->
  (Protocol.t -> unit) ->
  unit
