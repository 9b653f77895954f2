(* The four-way commit-protocol shootout: two-phase, non-blocking,
   Paxos Commit (at F = 0 and F = 1) and short-commit drive the same
   closed-loop distributed-update workload on one cluster shape, and
   the table reports what each protocol's extra machinery costs — and
   buys — in latency, variance, aborts and messages per transaction.

   Every transaction updates one key at every site, which is the worst
   case for the commit path: every participant votes, every force is
   on the critical path. Messages/txn counts every datagram the
   cluster's LAN carried; at F = 0 versus F = 1 it shows the acceptor
   fan-out the Paxos variant pays for surviving a coordinator crash
   without blocking. *)

open Camelot_sim
open Camelot_core

type row = {
  sh_name : string;
  sh_committed : int;
  sh_aborted : int;
  sh_abort_rate : float;
  sh_mean_ms : float;
  sh_sd_ms : float;
  sh_p50_ms : float;
  sh_p99_ms : float;
  sh_msgs_per_txn : float;
}

let contenders =
  let all_sites protocol paxos_f = Closed_loop.All_sites { protocol; paxos_f } in
  [
    ("2pc", all_sites Protocol.Two_phase 0);
    ("nonblocking", all_sites Protocol.Nonblocking 0);
    ("paxos F=0", all_sites Protocol.Paxos_commit 0);
    ("paxos F=1", all_sites Protocol.Paxos_commit 1);
    ("short-commit", all_sites Protocol.Short_commit 0);
  ]

let row name (r : Closed_loop.result) =
  let decided = r.Closed_loop.committed + r.Closed_loop.aborted in
  let per_decided n =
    if decided = 0 then 0.0 else float_of_int n /. float_of_int decided
  in
  let lat = r.Closed_loop.latency in
  let stat f = if Stats.count lat = 0 then 0.0 else f lat in
  {
    sh_name = name;
    sh_committed = r.Closed_loop.committed;
    sh_aborted = r.Closed_loop.aborted;
    sh_abort_rate = per_decided r.Closed_loop.aborted;
    sh_mean_ms = stat Stats.mean;
    sh_sd_ms = stat Stats.stddev;
    sh_p50_ms = stat Stats.median;
    sh_p99_ms = stat (fun s -> Stats.percentile s 99.0);
    sh_msgs_per_txn =
      per_decided r.Closed_loop.metrics.Camelot.Metrics.datagrams_sent;
  }

let collect ?(sites = 3) ?(workers_per_site = 2) ?(horizon_ms = 20_000.0) () =
  List.map
    (fun (name, mix) ->
      row name (Closed_loop.run ~mix ~sites ~workers_per_site ~horizon_ms ()))
    contenders

let run ?sites ?workers_per_site ?horizon_ms () =
  let rows = collect ?sites ?workers_per_site ?horizon_ms () in
  Report.header
    "Protocol shootout: closed-loop all-site updates (latency, aborts, \
     messages/txn)";
  Report.table
    ~columns:
      [
        "PROTOCOL";
        "committed";
        "abort %";
        "mean ms";
        "sd";
        "p50 ms";
        "p99 ms";
        "msgs/txn";
      ]
    (List.map
       (fun r ->
         [
           r.sh_name;
           string_of_int r.sh_committed;
           Printf.sprintf "%.1f" (100.0 *. r.sh_abort_rate);
           Printf.sprintf "%.1f" r.sh_mean_ms;
           Printf.sprintf "%.1f" r.sh_sd_ms;
           Printf.sprintf "%.1f" r.sh_p50_ms;
           Printf.sprintf "%.1f" r.sh_p99_ms;
           Printf.sprintf "%.1f" r.sh_msgs_per_txn;
         ])
       rows);
  (match
     ( List.find_opt (fun r -> r.sh_name = "2pc") rows,
       List.find_opt (fun r -> r.sh_name = "paxos F=0") rows )
   with
  | Some two, Some pax ->
      Printf.printf
        "Paxos F=0 vs 2PC: %.1f vs %.1f msgs/txn — the degenerate case rides \
         the 2PC exchange.\n"
        pax.sh_msgs_per_txn two.sh_msgs_per_txn
  | _ -> ());
  rows
