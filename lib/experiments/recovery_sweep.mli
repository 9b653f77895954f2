(** Recovery-scaling sweep: a ~100k-record log on one 8-processor
    site, crashed and replayed with 1, 2, 4 and 8 parallel partitions
    (updates bucketed by (server, key) hash). Reports simulated replay
    time and ns/record per partition count; all virtual-time, hence
    deterministic. *)

type point = {
  rp_partitions : int;
  rp_records : int;
  rp_replay_ms : float;  (** virtual ms from crash to recovery complete *)
  rp_ns_per_record : float;  (** simulated ns per replayed record *)
}

(** Replay at 1, 2, 4 and 8 partitions (default 100_000 records),
    print the table plus a speedup summary, return the points. *)
val run : ?records:int -> unit -> point list
