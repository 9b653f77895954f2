(* Open-loop traffic rig: unlike the closed loop in [Closed_loop], where
   a worker only offers its next transaction after the previous one
   returns (so offered load self-throttles at saturation), here every
   arrival is scheduled as its own engine timer up front — the offered
   rate is fixed no matter how slow the system gets, which is the only
   way to see latency tails grow and find the saturation knee.

   One timer per arrival keeps thousands of timers pending (about 8.4k
   at the default sweep's 1600 tps x 5 s point), which the engine's
   4-ary heap serves in O(log n). Arrivals land in each site's
   queue-sharded [Dispatch]: a fixed executor population drains
   per-shard FIFO queues (Qadah's queue-oriented model), so overload
   becomes queue depth and latency, never a fiber-per-transaction
   explosion. Hot keys route to fixed shards, and lock waits are
   bounded by [lock_timeout_ms]: transfers caught in a deadlock or
   parked behind a hot key abort instead of blocking forever, which is
   what makes the abort-rate-vs-load curve (the Short-Commit question)
   measurable. *)

open Camelot_sim
open Camelot_core
module Dispatch = Camelot_mach.Dispatch

(* Transaction mixes. [Debit_credit] is the TPC-style transfer pair —
   two exclusive locks taken in draw order (deliberately unordered, so
   hot-key cycles deadlock and resolve by timeout-abort); [Read_mostly]
   is 90% single-key lookups. *)
type mix = Debit_credit | Read_mostly

(* One sampled transaction, as key ranks (rank 0 = hottest). *)
type txn =
  | Transfer of { debit : int; credit : int; remote : bool }
      (** debit at the origin site, credit local or one site over *)
  | Lookup of int
  | Deposit of int

let p_remote_transfer = 0.1
let p_lookup = 0.9

let sample_txn mix zipf rng =
  match mix with
  | Debit_credit ->
      let debit = Rng.Zipf.draw zipf rng in
      let credit = Rng.Zipf.draw zipf rng in
      Transfer { debit; credit; remote = Rng.bool rng ~p:p_remote_transfer }
  | Read_mostly ->
      let k = Rng.Zipf.draw zipf rng in
      if Rng.bool rng ~p:p_lookup then Lookup k else Deposit k

(* Poisson arrival instants in [0, horizon_ms), ascending. Pure
   function of the rng stream, so generator tests can check the process
   in isolation. *)
let arrival_times ~rate_tps ~rng ~horizon_ms =
  if rate_tps <= 0.0 then
    invalid_arg "Open_loop.arrival_times: rate must be positive";
  let mean = 1000.0 /. rate_tps in
  let rec loop t acc =
    let t = t +. Rng.exponential rng ~mean in
    if t < horizon_ms then loop t (t :: acc) else List.rev acc
  in
  loop 0.0 []

type point = {
  offered_tps : float;
  arrivals : int;
  committed : int;
  aborted : int;  (* lock-timeout and vetoed commits *)
  backlog : int;  (* still queued or in flight when the horizon hit *)
  completed_tps : float;  (* committed per second of virtual time *)
  abort_rate : float;  (* aborted / (committed + aborted) *)
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_shard_depth : int;
}

let key_name rank = Printf.sprintf "a%d" rank

(* The rig's fixed shape: key skew, each site's dispatcher, and the
   lock-wait bound that turns hot-key deadlocks into aborts. *)
let theta = 0.99
let shards_per_site = 4
let executors_per_shard = 4
let lock_timeout_ms = 50.0

let run_one ?(seed = 17) ?(sites = 24) ?(mix = Debit_credit) ?(keys = 64)
    ~rate_tps ~horizon_ms () =
  let executors = shards_per_site * executors_per_shard in
  let config = State.default_config ~threads:executors () in
  let c =
    Camelot.Cluster.create ~seed ~model:Camelot_mach.Cost_model.vax ~config
      ~logger:Camelot.Cluster.Adaptive ~lock_timeout_ms ~sites ()
  in
  let engine = Camelot.Cluster.engine c in
  let dispatches =
    Array.init sites (fun site ->
        Dispatch.create ~shards:shards_per_site ~executors_per_shard
          (Camelot.Cluster.node c site).Camelot.Cluster.site)
  in
  let rng = Rng.create ~seed:(seed * 8191) in
  let arrivals_rng = Rng.split rng in
  let draw_rng = Rng.split rng in
  let zipf = Rng.Zipf.create ~n:keys ~theta in
  let lat = Stats.create () in
  let committed = ref 0 in
  let aborted = ref 0 in
  let submitted = ref 0 in
  (* the transaction body, run inside a dispatch executor fiber *)
  let exec ~origin ~arrived txn =
    let tm = Camelot.Cluster.tranman c origin in
    let tid = Tranman.begin_transaction tm in
    match
      match txn with
      | Lookup k ->
          ignore
            (Camelot.Cluster.op c ~origin tid ~site:origin
               (Camelot_server.Data_server.Read (key_name k))
              : int);
          Tranman.commit tm tid
      | Deposit k ->
          ignore
            (Camelot.Cluster.op c ~origin tid ~site:origin
               (Camelot_server.Data_server.Add (key_name k, 1))
              : int);
          Tranman.commit tm tid
      | Transfer { debit; credit; remote } ->
          ignore
            (Camelot.Cluster.op c ~origin tid ~site:origin
               (Camelot_server.Data_server.Add (key_name debit, -1))
              : int);
          let credit_site = if remote then (origin + 1) mod sites else origin in
          ignore
            (Camelot.Cluster.op c ~origin tid ~site:credit_site
               (Camelot_server.Data_server.Add (key_name credit, 1))
              : int);
          if credit_site = origin then Tranman.commit tm tid
          else Tranman.commit tm ~protocol:Protocol.Two_phase tid
    with
    | Protocol.Committed ->
        incr committed;
        Stats.add lat (Fiber.now () -. arrived)
    | Protocol.Aborted -> incr aborted
    | exception Camelot_server.Data_server.Lock_timeout _ ->
        (* bounded lock wait expired (hot-key convoy or deadlock):
           abort and release whatever we hold *)
        Tranman.abort tm tid;
        incr aborted
  in
  (* one engine timer per arrival — the open loop itself *)
  let times = arrival_times ~rate_tps ~rng:arrivals_rng ~horizon_ms in
  let n_arrivals = List.length times in
  List.iter
    (fun time ->
      Engine.schedule_at engine ~time (fun () ->
          let origin = Rng.int_below draw_rng sites in
          let txn = sample_txn mix zipf draw_rng in
          let shard_key =
            match txn with
            | Transfer { debit; _ } | Lookup debit | Deposit debit -> debit
          in
          let arrived = Engine.now engine in
          if
            Dispatch.submit_key dispatches.(origin) ~key:shard_key (fun () ->
                exec ~origin ~arrived txn)
          then incr submitted))
    times;
  Camelot.Cluster.run ~until:horizon_ms c;
  let done_ = !committed + !aborted in
  let max_shard_depth =
    Array.fold_left (fun acc d -> max acc (Dispatch.max_depth d)) 0 dispatches
  in
  let pct p = if Stats.count lat = 0 then 0.0 else Stats.percentile lat p in
  {
    offered_tps = rate_tps;
    arrivals = n_arrivals;
    committed = !committed;
    aborted = !aborted;
    backlog = !submitted - done_;
    completed_tps = float_of_int !committed /. (horizon_ms /. 1000.0);
    abort_rate =
      (if done_ = 0 then 0.0 else float_of_int !aborted /. float_of_int done_);
    mean_ms = Stats.mean lat;
    p50_ms = pct 50.0;
    p99_ms = pct 99.0;
    p999_ms = pct 99.9;
    max_shard_depth;
  }

(* Offered loads for the standard sweep: the low end is comfortably
   under capacity, the high end far past the knee. *)
let load_range = [ 100.0; 200.0; 400.0; 800.0; 1600.0 ]

let collect ?sites ?mix ?(loads = load_range) ?(horizon_ms = 5_000.0) () =
  List.map (fun rate_tps -> run_one ?sites ?mix ~rate_tps ~horizon_ms ()) loads

(* The saturation knee: the first offered load that leaves more than
   10% of its arrivals unfinished at the horizon. Below the knee the
   backlog is only the end effect (arrivals within one mean latency of
   the horizon, a few percent); past it the queues grow for the whole
   run, so the unfinished fraction jumps. Abort rate can't be the
   signal — hot-key deadlocks abort transactions at any load. *)
let knee points =
  List.find_opt
    (fun p ->
      p.arrivals > 0
      && float_of_int p.backlog > 0.1 *. float_of_int p.arrivals)
    points

let pp_row p =
  [
    Printf.sprintf "%.0f" p.offered_tps;
    Printf.sprintf "%.1f" p.completed_tps;
    Printf.sprintf "%.1f%%" (100.0 *. p.abort_rate);
    Printf.sprintf "%.1f" p.p50_ms;
    Printf.sprintf "%.1f" p.p99_ms;
    Printf.sprintf "%.1f" p.p999_ms;
    string_of_int p.backlog;
    string_of_int p.max_shard_depth;
  ]

let run ?sites ?mix ?loads ?horizon_ms () =
  let points = collect ?sites ?mix ?loads ?horizon_ms () in
  Report.header
    "Open loop: Poisson arrivals, Zipf(0.99) keys, queue-sharded execution";
  Report.table
    ~columns:
      [
        "OFFERED TPS";
        "DONE TPS";
        "ABORT%";
        "p50 ms";
        "p99 ms";
        "p999 ms";
        "BACKLOG";
        "MAXQ";
      ]
    (List.map pp_row points);
  (match knee points with
  | Some p ->
      Printf.printf
        "Saturation knee at %.0f offered tps: completions fall behind the \
         open-loop arrivals and the backlog grows without bound.\n"
        p.offered_tps
  | None ->
      print_endline
        "No saturation knee in this range: completions track offered load.");
  points
