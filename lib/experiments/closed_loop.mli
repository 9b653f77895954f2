(** The one closed loop behind the logger sweep and the protocol shootout:
    N worker fibers per site on a VAX-model cluster, each beginning its
    next transaction after a short exponential think time once the
    previous one returns, until the horizon. The cluster's seed is 11;
    worker [w] at site [s] draws from its own seed,
    [11 + s*8191 + w*131 + 1]. *)

(** What each worker's transactions do. Think time, key count and the
    commit watchdogs are constants of the mix. *)
type mix =
  | Table3
      (** Table-3 shape: 40% local read, 50% local update, 10% update at
          every site under 2PC; 8 keys per site, 5 ms mean think time,
          default watchdogs. *)
  | All_sites of { protocol : Camelot_core.Protocol.commit_protocol; paxos_f : int }
      (** one update at every site, committed under [protocol] with
          Paxos fault tolerance [paxos_f]; 64 keys per site, 50 ms mean
          think time, and vote/subordinate timeouts raised to 2 s/10 s
          so the fault-free runs never trip them. *)

type result = {
  committed : int;  (** transactions the workers saw commit *)
  aborted : int;  (** transactions the workers saw abort *)
  latency : Camelot_sim.Stats.t;
      (** begin-to-commit of the committed ones, virtual ms *)
  metrics : Camelot.Metrics.t;  (** the cluster's counters at the horizon *)
}

(** [run ~mix ~sites ~workers_per_site ~horizon_ms ()] runs one
    cluster to [horizon_ms] of virtual time. [logger] is the log
    write-out policy (default [Unbatched]). *)
val run :
  ?logger:Camelot.Cluster.logger ->
  mix:mix ->
  sites:int ->
  workers_per_site:int ->
  horizon_ms:float ->
  unit ->
  result
