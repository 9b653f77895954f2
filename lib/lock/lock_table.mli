(** Shared/exclusive object locking with Moss-model nested-transaction
    inheritance.

    Each data server serializes access to its objects by locking
    (paper §2); the runtime library provides shared/exclusive mode
    locks (the "rw-lock" package of §3.4). This table implements them
    for simulated transactions:

    - {b modes}: any number of [Shared] holders, or ancestors-only plus
      one [Exclusive] holder;
    - {b nesting} (Moss rules): a transaction may acquire a lock held
      by its ancestors — [Exclusive] requires every holder to be an
      ancestor, [Shared] requires every [Exclusive] holder to be an
      ancestor. On subtransaction commit, its locks are
      {e anti-inherited} (transferred) to the parent; on abort they are
      discarded;
    - {b fairness}: waiters queue FIFO; a grantable waiter behind a
      non-grantable one still waits (no overtaking, no starvation);
    - {b upgrades}: a [Shared] holder may request [Exclusive] and is
      granted once other conflicting holders finish.

    The owner type is a parameter; the transaction manager instantiates
    it with transaction identifiers and supplies the ancestor
    relation. *)

type mode = Shared | Exclusive

val pp_mode : Format.formatter -> mode -> unit

(** Raised at a waiter's {!acquire} site by {!break_all}. *)
exception Broken

type 'o t

(** [create engine ~is_ancestor] builds an empty table.
    [is_ancestor a b] must hold when [a] = [b] or [a] is a proper
    ancestor of [b] in the transaction nesting tree. *)
val create : Camelot_sim.Engine.t -> is_ancestor:('o -> 'o -> bool) -> 'o t

(** [acquire t ~owner ~key mode] blocks the calling fiber until
    granted. Re-acquiring an already-held or weaker mode returns
    immediately. *)
val acquire : 'o t -> owner:'o -> key:string -> mode -> unit

(** As {!acquire} but gives up after [timeout] ms; returns whether the
    lock was granted. An abandoned request leaves no trace in the
    queue. The paper's applications break deadlocks this way. *)
val acquire_timeout : 'o t -> owner:'o -> key:string -> mode -> timeout:float -> bool

(** Non-blocking attempt (respects queue fairness: fails if anyone is
    already waiting, even if modes are compatible). *)
val try_acquire : 'o t -> owner:'o -> key:string -> mode -> bool

(** Mode held by [owner] on [key], if any. *)
val held : 'o t -> owner:'o -> key:string -> mode option

(** Release every lock held by [owner] (transaction end). *)
val release_all : 'o t -> owner:'o -> unit

(** [break_all t] fails every queued waiter with {!Broken} and empties
    the wait queues; holders are untouched. A crash of the hosting
    process must break waits this way: a waiter suspended from a remote
    caller's fiber is not in the dying site's fiber group, and the
    restarted server builds a fresh table — without the break it would
    block forever on a queue nothing ever pumps again. *)
val break_all : 'o t -> unit

(** [transfer t ~from_ ~to_] moves all of [from_]'s locks to [to_]
    (nested-commit anti-inheritance), merging modes ([Exclusive]
    wins). *)
val transfer : 'o t -> from_:'o -> to_:'o -> unit

(** Current holders of [key]. *)
val holders : 'o t -> key:string -> ('o * mode) list

(** Requests currently waiting on [key]. *)
val queue_length : 'o t -> key:string -> int

(** Every [(key, owner, mode)] holding in the table, in internal slot
    order. After all transactions have resolved the table should hold
    nothing; the chaos lock-hygiene oracle asserts exactly that. *)
val all_held : 'o t -> (string * 'o * mode) list

(** Total grants so far. *)
val grants : 'o t -> int

(** Grants that had to wait at least once. *)
val contended_grants : 'o t -> int
