(** Cluster-wide instrumentation: one snapshot per site plus network
    totals, for experiment reports and capacity analysis (which
    resource saturates — the §4.4 question — is read straight off the
    utilization columns). *)

type site_metrics = {
  site : Camelot_mach.Site.id;
  alive : bool;
  incarnation : int;
  begun : int;
  committed : int;
  aborted : int;
  distributed : int;
  takeovers : int;
  inquiries : int;
  heuristic : int;
  heuristic_damage : int;
  log_forces : int;
  disk_writes : int;
  log_records : int;
  log_truncations : int;  (** checkpoint truncations performed *)
  log_base_lsn : int;  (** lowest LSN still held *)
  log_batch_mean : float;  (** records made durable per non-empty write *)
  log_batch_hist : (int * int) list;
      (** batch-size histogram: (bucket upper bound, writes) *)
  force_latency_mean_ms : float;  (** daemon-mode force round-trips *)
  force_latency_max_ms : float;
  durable_lag_mean : float;
      (** records still volatile when a write lands — the spool the
          pipelining keeps in flight *)
  cpu_busy_ms : float;
  cpu_utilization : float;  (** busy time / (elapsed x processors) *)
}

type t = {
  elapsed_ms : float;
  sites : site_metrics list;
  datagrams_sent : int;
  datagrams_delivered : int;
  datagrams_dropped : int;
}

(** Snapshot the cluster's counters. *)
val collect : Cluster.t -> t

(** {1 Cluster-wide totals} *)

val total_committed : t -> int
val total_log_forces : t -> int
val total_disk_writes : t -> int

(** Forces (resp. physical writes) divided by committed transactions,
    over the whole cluster; [0.] when nothing committed. The paper's
    group-commit question — how many log forces does one commit cost —
    read straight off a snapshot. *)
val forces_per_commit : t -> float

val disk_writes_per_commit : t -> float

val pp : Format.formatter -> t -> unit
