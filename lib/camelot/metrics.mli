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

val total_log_forces : t -> int
val total_disk_writes : t -> int

val pp : Format.formatter -> t -> unit
