(** A Camelot data server: manages named integer-valued objects on one
    site, serializes access by shared/exclusive locking with
    nested-transaction inheritance, spools old/new values to the common
    log ("as late as possible"), joins transactions on first touch, and
    participates in commitment through the {!State.server_callbacks} it
    registers with the local transaction manager.

    Operations must be invoked through the communication manager
    ({!Camelot_core.Comm}) so costs and site tracking are accounted:

    {[
      let v = Comm.call_local tm ~tid (fun () ->
          Data_server.execute srv tid (Read "balance"))
    ]} *)

type t

(** Operations on objects. Unknown keys read as 0. *)
type op =
  | Read of string
  | Write of string * int  (** set; returns the new value *)
  | Add of string * int  (** increment; returns the new value *)

(** Raised when a lock could not be acquired within [lock_timeout_ms];
    the caller should abort the transaction. *)
exception Lock_timeout of { server : string; key : string }

(** [create ~name ~tranman ~log ()] builds the server and registers its
    callbacks with [tranman].
    @param lock_timeout_ms bound lock waits (default: wait forever). *)
val create :
  name:string ->
  tranman:Camelot_core.Tranman.t ->
  log:Camelot_core.Record.t Camelot_wal.Log.t ->
  ?lock_timeout_ms:float ->
  unit ->
  t

val name : t -> string

(** Execute one operation on behalf of a transaction: join on first
    touch, lock, apply, spool the update record. Returns the value read
    or written.
    @raise Lock_timeout *)
val execute : t -> Camelot_core.Tid.t -> op -> int

(** Non-transactional peek at the committed value (tests, reports). *)
val peek : t -> string -> int

(** Keys with non-zero or explicitly-written values. *)
val keys : t -> string list

(** The lock table (inspection/tests). *)
val locks : t -> Camelot_core.Tid.t Camelot_lock.Lock_table.t

(** Make the next vote for the given transaction a veto (test hook for
    abort paths). *)
val veto_next : t -> Camelot_core.Tid.t -> unit

(** {1 Crash / recovery} *)

(** Discard all volatile state (values, locks, undo) — the site
    crashed. The server must then be re-registered via {!reattach}
    and recovery replayed. *)
val reset : t -> unit

(** Break every pending lock wait with {!Camelot_lock.Lock_table.Broken}.
    Called when the hosting site crashes: waiters executing on behalf of
    remote callers run on the {e caller's} site's fibers, so the crash
    does not kill them, and {!reset} replaces the lock table — without
    the break they would block forever. *)
val break_waiters : t -> unit

(** Re-register callbacks with the (restarted) transaction manager. *)
val reattach : t -> unit

(** Recovery: re-apply a logged update (winner transactions). *)
val redo : t -> Camelot_core.Record.update -> unit

(** Recovery: reverse a logged update (loser transactions); call in
    reverse log order. *)
val undo : t -> Camelot_core.Record.update -> unit

(** Checkpoint support: the committed [(server, key, value)] snapshot —
    current values with every in-flight write undone — and those
    in-flight writes as update records, each family's oldest first. A
    write that a later committed writer overtook (possible only after a
    short-commit early release) is neither undone nor carried. *)
val checkpoint :
  t -> (string * string * int) list * Camelot_core.Record.update list

(** Recovery: install a checkpointed committed value. *)
val restore : t -> key:string -> value:int -> unit

(** Recovery of an in-doubt (prepared, undecided) transaction's update:
    re-apply the value, rebuild the undo entry and join bookkeeping,
    and re-take the exclusive lock so new transactions wait until the
    outcome arrives. *)
val recover_in_doubt : t -> Camelot_core.Record.update -> unit
