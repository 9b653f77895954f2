(** Lightweight event tracing for debugging simulations.

    A trace is a bounded ring of [(virtual time, tag, message)] records.
    A disabled trace renders nothing, and a call site guarded by
    {!enabled} costs one branch. The protocol implementations tag every
    message send/receive and log write, so a failed test can dump the
    exact interleaving that produced it. *)

type t

type record = { time : float; tag : string; message : string }

(** [create ~capacity ()] keeps the last [capacity] records.
    @param enabled start recording immediately (default [true]). The
    transaction manager creates its trace disabled — enable it with
    {!set_enabled} when debugging — so the commit hot path never pays
    for formatting; its hot call sites also test {!enabled} first. *)
val create : ?capacity:int -> ?enabled:bool -> unit -> t

(** Globally enable/disable recording (starts disabled is [false];
    traces are created enabled). *)
val set_enabled : t -> bool -> unit

val enabled : t -> bool

(** [record t eng ~tag fmt ...] records a formatted message stamped
    with the engine's current time. When [t] is disabled nothing is
    rendered, but consuming the arguments still allocates a closure per
    conversion; test {!enabled} first where that matters. *)
val record : t -> Engine.t -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Records, oldest first. *)
val dump : t -> record list

(** Pretty-print all records, one per line. *)
val pp : Format.formatter -> t -> unit

val clear : t -> unit
