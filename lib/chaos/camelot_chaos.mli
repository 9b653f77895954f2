(** Named fault points for deterministic failure exploration.

    Protocol code declares fault points at module initialisation with
    {!register} and consults them on the hot path with {!point} (inside
    a fiber, may kill the site) or {!deny} (a pure yes/no decision,
    safe outside fibers — e.g. in raw engine callbacks). When no
    explorer is attached both are a single [ref] load and a branch: no
    allocation, no RNG draw, so reproduction output stays
    bit-identical with the hooks compiled in.

    The explorer side attaches a sink with {!attach}; the sink sees
    every hit of every point together with the site id and decides
    whether to pass, deny the guarded action, or kill the site. *)

(** Raised by {!die} when the hitting fiber does not belong to the
    crashed site's group (e.g. recovery driven by the explorer
    itself); callers of such code catch it to observe the crash. *)
exception Killed

(** How a fault point is consulted. [Step] points mark protocol
    progress ({!point}); [Choice] points guard a deniable action
    ({!deny}) such as delivering a datagram or completing a disk
    write. *)
type kind = Step | Choice

type action =
  | Pass  (** let the protocol proceed *)
  | Deny  (** [deny] returns [true]; [point] treats this as [Pass] *)
  | Kill  (** crash the hitting site and terminate the hitting fiber *)

(** [register ?kind name] declares a fault point at module-init time
    and returns [name] (bind it and pass the binding to {!point} /
    {!deny} so hot paths share one interned string). Registering the
    same name twice keeps one entry. *)
val register : ?kind:kind -> string -> string

(** All declared fault points, sorted by name. *)
val registered : unit -> (string * kind) list

(** Protocol state a site is in, reported with {!note_votes},
    {!note_ballot} and {!note_quorum}. *)
type note =
  | Votes of int  (** yes-votes a collecting coordinator still awaits *)
  | Ballot of int  (** ballot of the Paxos resolve round in progress *)
  | Quorum_commit  (** the site forced its non-blocking Replication record *)
  | Quorum_abort  (** the site forced its non-blocking Refusal record *)

(** [attach ~on_hit ~on_note ~crash] connects an explorer. [on_hit] is
    called on every hit of every point; [on_note] on every protocol-state
    note; [crash] must fail-stop the given site (kill its fiber group
    and truncate its volatile log tail). Attaching replaces any previous
    sink.

    The sink is domain-local: each OCaml domain attaches its own, so
    parallel fuzz jobs — one explorer per domain — never observe each
    other. A domain with nothing attached sees the hooks as free
    no-ops. *)
val attach :
  on_hit:(point:string -> site:int -> action) ->
  on_note:(site:int -> note -> unit) ->
  crash:(site:int -> unit) ->
  unit

(** Disconnect the sink; hooks revert to free no-ops. *)
val detach : unit -> unit

(** [point ~site name] reports a hit of [Step] point [name] at [site].
    No-op when detached or the sink answers [Pass]/[Deny]; on [Kill]
    the site is crashed and the calling fiber never returns (it is
    cancelled, or {!Killed} is raised if it outlives the group). *)
val point : site:int -> string -> unit

(** [deny ~site name] reports a hit of [Choice] point [name] and
    returns [true] iff the sink answers [Deny] or [Kill]. Never
    blocks, never raises — safe in raw engine callbacks. *)
val deny : site:int -> string -> bool

(** [note_votes ~site n], [note_ballot ~site b] and
    [note_quorum ~site ~commit] pass [site]'s current {!note} to the
    sink. They take the note's fields, not a [note], so a detached call
    is a single branch and allocates nothing. *)
val note_votes : site:int -> int -> unit

val note_ballot : site:int -> int -> unit
val note_quorum : site:int -> commit:bool -> unit

(** [die ~site ()] crashes [site] via the attached [crash] callback
    and terminates the calling fiber: if the fiber belongs to the
    killed group a yield raises its cancellation; otherwise {!Killed}
    is raised. Must only be called while attached, from code that has
    already left shared state consistent (fail-stop). *)
val die : site:int -> unit -> 'a
