open Camelot_sim
open Camelot_mach
open Camelot_core

type site_metrics = {
  site : Site.id;
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
  log_truncations : int;
  log_base_lsn : int;
  log_batch_mean : float;  (* records made durable per non-empty write *)
  log_batch_hist : (int * int) list;  (* (bucket upper bound, writes) *)
  force_latency_mean_ms : float;  (* daemon-mode force round-trips *)
  force_latency_max_ms : float;
  durable_lag_mean : float;  (* records still volatile when a write lands *)
  cpu_busy_ms : float;
  cpu_utilization : float;
}

type t = {
  elapsed_ms : float;
  sites : site_metrics list;
  datagrams_sent : int;
  datagrams_delivered : int;
  datagrams_dropped : int;
}

let site_snapshot cluster elapsed i =
  let node = Cluster.node cluster i in
  let site = node.Cluster.site in
  let stats = Tranman.stats node.Cluster.tranman in
  let cpu = Site.cpu site in
  let busy = Sync.Resource.busy_time cpu in
  let capacity = elapsed *. float_of_int (Sync.Resource.servers cpu) in
  let bs = Camelot_wal.Log.batch_stats node.Cluster.log in
  {
    site = Site.id site;
    alive = Site.alive site;
    incarnation = Site.incarnation site;
    begun = stats.State.n_begun;
    committed = stats.State.n_committed;
    aborted = stats.State.n_aborted;
    distributed = stats.State.n_distributed;
    takeovers = stats.State.n_takeovers;
    inquiries = stats.State.n_inquiries;
    heuristic = stats.State.n_heuristic;
    heuristic_damage = stats.State.n_heuristic_damage;
    log_forces = Camelot_wal.Log.forces node.Cluster.log;
    disk_writes = Camelot_wal.Log.disk_writes node.Cluster.log;
    log_records = Camelot_wal.Log.records_spooled node.Cluster.log;
    log_truncations = Camelot_wal.Log.truncations node.Cluster.log;
    log_base_lsn = Camelot_wal.Log.base_lsn node.Cluster.log;
    log_batch_mean =
      (if bs.Camelot_wal.Log.bs_writes = 0 then 0.0
       else
         float_of_int bs.Camelot_wal.Log.bs_records
         /. float_of_int bs.Camelot_wal.Log.bs_writes);
    log_batch_hist = bs.Camelot_wal.Log.bs_hist;
    force_latency_mean_ms = bs.Camelot_wal.Log.bs_force_lat_mean_ms;
    force_latency_max_ms = bs.Camelot_wal.Log.bs_force_lat_max_ms;
    durable_lag_mean = bs.Camelot_wal.Log.bs_lag_mean;
    cpu_busy_ms = busy;
    cpu_utilization = (if capacity > 0.0 then busy /. capacity else 0.0);
  }

let collect cluster =
  let elapsed = Engine.now (Cluster.engine cluster) in
  let lans = Cluster.lans cluster in
  let sum f = List.fold_left (fun acc lan -> acc + f lan) 0 lans in
  {
    elapsed_ms = elapsed;
    sites = List.init (Cluster.sites cluster) (site_snapshot cluster elapsed);
    datagrams_sent = sum Camelot_net.Lan.sent;
    datagrams_delivered = sum Camelot_net.Lan.delivered;
    datagrams_dropped = sum Camelot_net.Lan.dropped;
  }

let sum_sites f t = List.fold_left (fun acc s -> acc + f s) 0 t.sites

let total_committed = sum_sites (fun s -> s.committed)
let total_log_forces = sum_sites (fun s -> s.log_forces)
let total_disk_writes = sum_sites (fun s -> s.disk_writes)

let per_commit total t =
  let committed = total_committed t in
  if committed = 0 then 0.0 else float_of_int total /. float_of_int committed

let forces_per_commit t = per_commit (total_log_forces t) t
let disk_writes_per_commit t = per_commit (total_disk_writes t) t

let pp ppf t =
  Format.fprintf ppf "@[<v>elapsed %.1f ms; datagrams sent %d, delivered %d, dropped %d@,"
    t.elapsed_ms t.datagrams_sent t.datagrams_delivered t.datagrams_dropped;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "site %d (%s, inc %d): begun %d, committed %d, aborted %d (distributed %d); \
         takeovers %d, inquiries %d, heuristic %d (damage %d); \
         forces %d, writes %d, records %d; cpu %.0f ms (%.0f%%)@,"
        s.site
        (if s.alive then "up" else "down")
        s.incarnation s.begun s.committed s.aborted s.distributed s.takeovers
        s.inquiries s.heuristic s.heuristic_damage s.log_forces s.disk_writes
        s.log_records s.cpu_busy_ms
        (100.0 *. s.cpu_utilization))
    t.sites;
  Format.fprintf ppf "@]"
