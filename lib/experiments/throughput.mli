(** Closed-loop commit-pipeline throughput (beyond Figures 4-5): N
    worker fibers per site on a 2-site VAX cluster, each looping a
    Table-3-shaped mix (local reads and updates plus an occasional
    2PC distributed update) with no pacing other than a short think
    time — offered load scales with workers until the log disk or the
    TranMan CPU saturates. Reports committed transactions per second
    and log forces per commit, with the batched (group-commit) log on
    and off. *)

type result = {
  workers_per_site : int;
  logger : Camelot.Cluster.logger;
  tps : float;  (** committed transactions per second of virtual time *)
  committed : int;
  forces_per_commit : float;
  disk_writes_per_commit : float;
}

(** One cluster run at one operating point. [sites] (default 2) sizes
    the cluster; [logger] selects the log write-out policy. *)
val run_one :
  ?seed:int ->
  ?sites:int ->
  logger:Camelot.Cluster.logger ->
  workers_per_site:int ->
  horizon_ms:float ->
  unit ->
  result

(** The worker counts [collect] sweeps. *)
val worker_range : int list

(** Sweep {!worker_range}, each point with group commit off and on
    (default horizon 20 s of virtual time). The gc-on column uses the
    adaptive logger daemon — the shipping batched-log configuration. *)
val collect : ?horizon_ms:float -> unit -> (result * result) list

(** [run ()] sweeps, prints the table and the crossover note, and
    returns the rows. *)
val run : ?horizon_ms:float -> unit -> (result * result) list
