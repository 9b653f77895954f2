(** The Camelot transaction manager: one instance per site.

    The TranMan is "essentially a protocol processor" (paper §3): it
    implements begin/join/commit/abort for arbitrarily nested and
    distributed transactions and runs four commit protocols, chosen per
    commit call: the presumed-abort two-phase commit protocol with the
    §3.2 delayed-commit-ack optimization, the three-phase non-blocking
    protocol of §3.3, Gray & Lamport's Paxos Commit, and short-commit
    (the 2PC coordinator with presumed commit and early lock release);
    plus the abort protocol. Each protocol's presumption comes from one
    rule, {!State.presumption}. The TranMan is multithreaded in the
    §3.4 style (a pool of identical worker threads, none tied to a
    transaction), and it learns which sites a transaction has spread to
    from the communication manager's hooks ({!note_site}).

    All blocking calls must run inside a simulation fiber. *)

type t

(** Raised by transaction calls naming an id this TranMan never saw or
    has already forgotten. *)
exception Unknown_transaction of Tid.t

(** [create site ~lan ~log ~directory ~config] builds and starts the
    transaction manager: its worker pool, a one-shard
    {!Camelot_mach.Dispatch} with [config.threads] executors, is spawned
    in the site's fiber group, and the network endpoint is registered in
    [directory] (the name-service map shared by the cluster). The pool
    re-staffs itself when the site restarts; call {!restart} then too. *)
val create :
  Camelot_mach.Site.t ->
  lan:Camelot_net.Lan.t ->
  log:Record.t Camelot_wal.Log.t ->
  directory:(Camelot_mach.Site.id, Protocol.t Camelot_net.Lan.endpoint) Hashtbl.t ->
  config:State.config ->
  t

(** Forget the volatile transaction state and re-attach the endpoint
    after the site restarts (recovery rebuilds what the log supports).
    Requests queued for the pool before the crash are gone with the old
    incarnation. *)
val restart : t -> unit

val site : t -> Camelot_mach.Site.t
val config : t -> State.config
val stats : t -> State.stats
val trace : t -> Camelot_sim.Trace.t

(** {1 The transaction interface} *)

(** Begin a new top-level transaction (Figure 1, step 2). *)
val begin_transaction : t -> Tid.t

(** Begin a subtransaction of [parent]. *)
val begin_nested : t -> parent:Tid.t -> Tid.t

(** Commit the transaction. For a top-level transaction this runs the
    distributed commitment protocol selected by [protocol] (default
    {!Protocol.Two_phase}; §3.3: "the type of commitment protocol to
    execute is specified as an argument to the commit-transaction
    call") and blocks until the outcome is decided. Every protocol
    shares one opening: the local servers vote, a no aborts everywhere
    the transaction spread, and a transaction that never spread
    commits locally; only a yes with subordinates runs the protocol
    itself. For a nested
    transaction it performs local commit with lock anti-inheritance and
    propagates to the family's other sites.
    Any still-unresolved subtransactions are aborted first.

    A top-level transaction that never spread beyond this site is
    {!forget}ten as this call resolves it: no other site can ask about
    it, so once [commit] returns, {!outcome} is [None], {!status} is
    [St_unknown] and a second [commit] raises [Unknown_transaction]. A
    distributed one stays known, and committing it again returns its
    outcome, read from its outcome marker once the protocol has
    compacted it ({!State.compact}).
    @raise Unknown_transaction *)
val commit : t -> ?protocol:Protocol.commit_protocol -> Tid.t -> Protocol.outcome

(** Abort the transaction (top-level: everywhere it spread; nested:
    just its subtree). Idempotent, also after a transaction that never
    spread beyond this site is forgotten as it aborts (see {!commit}). *)
val abort : t -> Tid.t -> unit

(** The outcome of a transaction this TranMan still remembers: a
    distributed one until the site crashes, a local one only until
    {!commit} or {!abort} resolves it. A resolved family answers from
    its record or, once compacted, from its outcome marker; either way
    this reads and never rebuilds. After a restart {!recover} leaves
    every family it resolved as a marker, and [Recovery.run] reads the
    outcomes it redoes and undoes from here. *)
val outcome : t -> Tid.t -> Protocol.outcome option

(** Garbage-collect a finished transaction's descriptor, record or
    outcome marker. {!commit} and {!abort} call this for a top-level
    transaction that never spread beyond this site. Every other
    resolved family stays known until the site crashes, so duplicate
    messages get idempotent answers and {!outcome} keeps answering:
    as its record while its protocol may still write it, then as its
    shared outcome marker ({!State.compact}), which costs only its
    table cell. Afterwards inquiries answer "unknown", which is exactly
    what the configured presumption interprets. No-op while the
    transaction is unresolved. *)
val forget : t -> Tid.t -> unit

(** Heuristic resolution of a blocked transaction by an operator (the
    practical approach the paper credits to LU 6.2): apply the given
    outcome at this site {e now}, freeing its locks, without waiting
    for the coordinator. Correctness is not guaranteed — if the real
    outcome later arrives and disagrees, the contradiction is counted
    in [stats.n_heuristic_damage] and traced. Returns the previously
    decided outcome instead if the transaction was already resolved.
    @raise Unknown_transaction *)
val heuristic_resolve : t -> Tid.t -> Protocol.outcome -> Protocol.outcome

(** {1 Hooks for servers, the communication manager, and recovery} *)

(** A data server announces itself (must be called again after a
    restart, before recovery runs). *)
val register_server : t -> State.server_callbacks -> unit

(** First operation of a transaction at a local server: the server
    joins the transaction (Figure 1, step 4; one local IPC). *)
val join : t -> Tid.t -> server:string -> unit

(** The communication manager reports that the transaction has spread
    to a site (merged into the coordinator's participant list). *)
val note_site : t -> Tid.t -> Camelot_mach.Site.id -> unit

(** What this site knows about a transaction (read by the chaos
    oracles and tests). [St_unknown] for a forgotten one, including a
    local transaction once {!commit} or {!abort} returns. A compacted
    family's marker answers [St_committed] or [St_aborted], as its
    record did. *)
val status : t -> Tid.t -> Protocol.status

(** Protocol images of every family the log mentions, sorted by root
    TID — what a checkpoint record must carry so that a recovery
    starting its scan at the checkpoint (after the log below it was
    truncated) rebuilds the same descriptors the dropped records would
    have. The images fold the whole log up to its tail: the newest
    checkpoint's images and in-flight updates, then every record above
    it. {!recover} installs the same fold, taken up to the durable
    LSN. *)
val family_images : t -> Record.family_image list

(** What {!recover} read from the durable log. *)
type recovered = {
  in_doubt : Tid.t list;
      (** the transactions in doubt (watchdogs armed): the verdicts
          value replay takes *)
  ck_values : (string * string * int) list;
      (** the newest durable checkpoint's committed
          [(server, key, value)] snapshot; [[]] without one *)
  updates : Record.update list;
      (** that checkpoint's in-flight updates, then every update record
          above it, in log order *)
}

(** Rebuild protocol state from the durable log after a restart. Each
    family's descriptor is its image from the fold {!family_images}
    uses, taken up to the durable LSN: one backward pass finds the
    newest durable checkpoint, and the forward fold starts there
    instead of at LSN 0. Every family is then classified once:
    committed, aborted (undecided families that never prepared or
    joined a quorum abort now, by presumed abort), or in doubt.
    In-doubt transactions re-enter the blocked state (2PC and
    short-commit: inquiry loop; non-blocking and Paxos: takeover), and
    a coordinator resumes notifying an outcome its protocol
    acknowledges ({!State.presumption}) when no End record shows every
    acknowledgement in. Once those decisions are made, every family
    the compaction rule allows becomes its outcome marker
    ({!State.compact}); a coordinator that resumed notifying shrinks
    at its End record, as at run time. Servers must be re-registered
    first. Returns what the recovery process ([Recovery.run]) replays,
    read in the same pass over the log. *)
val recover : t -> recovered
