(** Logger-bottleneck sweep: closed-loop Table-3 throughput under
    three log write-out policies — naive (a platter write per force),
    fixed-window group commit (the paper's configuration), and the
    pipelined adaptive logger daemon — at 2 and 4 sites, up to 32
    workers per site. Shows where each policy's throughput knee sits
    and that the daemon moves the bottleneck off the log. *)

(** The TPS columns are transactions the workers saw commit per second
    of virtual time: a distributed commit counts once. *)
type point = {
  sweep_sites : int;
  sweep_workers : int;
  naive_tps : float;
  fixed_tps : float;
  adaptive_tps : float;
}

val site_range : int list

(** Sweep every (sites, workers) operating point (default horizon
    20 s of virtual time per point). *)
val collect : ?horizon_ms:float -> unit -> point list

(** Sweep, print one table per site count plus peak summary lines,
    and return the points. *)
val run : ?horizon_ms:float -> unit -> point list
