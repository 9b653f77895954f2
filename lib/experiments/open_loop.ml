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

(* Arrival process, by offered rate in transactions/second. [Bursty]
   keeps the same mean rate but releases arrivals [burst] at a time at
   Poisson epochs — a crude on/off source that stresses queue depth.
   [Piecewise] is a piecewise-constant-rate Poisson process — the
   diurnal/trace-driven source: each [(start_ms, rate_tps)] segment
   holds its rate until the next segment starts (the last one until the
   horizon). *)
type arrival =
  | Poisson of { rate_tps : float }
  | Bursty of { rate_tps : float; burst : int }
  | Piecewise of { segments : (float * float) list }

(* For [Piecewise] the offered rate is the peak segment rate — the
   figure a capacity planner would quote for a diurnal curve. *)
let offered_rate = function
  | Poisson { rate_tps } | Bursty { rate_tps; _ } -> rate_tps
  | Piecewise { segments } ->
      List.fold_left (fun acc (_, r) -> Float.max acc r) 0.0 segments

(* Built-in day curve: one sinusoidal "day" mapped onto the horizon,
   starting and ending at the overnight trough (15% of peak), sampled
   into [steps] constant-rate segments ("hours"). *)
let trough_fraction = 0.15

let day_curve ?(steps = 24) ~peak_tps ~horizon_ms () =
  if steps <= 0 then invalid_arg "Open_loop.day_curve: steps must be positive";
  if peak_tps <= 0.0 then
    invalid_arg "Open_loop.day_curve: peak must be positive";
  let mid = (1.0 +. trough_fraction) /. 2.0 in
  let amp = (1.0 -. trough_fraction) /. 2.0 in
  Piecewise
    {
      segments =
        List.init steps (fun i ->
            let start = horizon_ms *. float_of_int i /. float_of_int steps in
            (* rate at the segment midpoint *)
            let x = (float_of_int i +. 0.5) /. float_of_int steps in
            let rate =
              peak_tps *. (mid -. (amp *. Float.cos (2.0 *. Float.pi *. x)))
            in
            (start, rate));
    }

(* Trace file: one "t_ms rate_tps" pair per line ('#' comments and
   blank lines ignored), ascending times — replayed as a [Piecewise]
   arrival process. *)
let trace_of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let segments = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           match
             String.split_on_char ' ' line
             |> List.concat_map (String.split_on_char '\t')
             |> List.filter (fun s -> s <> "")
           with
           | [] -> ()
           | [ t; r ] -> (
               match (float_of_string_opt t, float_of_string_opt r) with
               | Some t, Some r -> segments := (t, r) :: !segments
               | _ ->
                   failwith
                     (Printf.sprintf "%s:%d: malformed trace line" path !lineno))
           | _ ->
               failwith
                 (Printf.sprintf
                    "%s:%d: expected \"t_ms rate_tps\"" path !lineno)
         done
       with End_of_file -> ());
      Piecewise { segments = List.rev !segments })

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

(* Arrival instants in [0, horizon_ms), ascending. Pure function of the
   rng stream, so generator tests can check the process in isolation. *)
let arrival_times arrival ~rng ~horizon_ms =
  if offered_rate arrival <= 0.0 then
    invalid_arg "Open_loop.arrival_times: rate must be positive";
  let out = ref [] in
  let t = ref 0.0 in
  (match arrival with
  | Poisson { rate_tps } ->
      let mean = 1000.0 /. rate_tps in
      let rec loop () =
        t := !t +. Rng.exponential rng ~mean;
        if !t < horizon_ms then begin
          out := !t :: !out;
          loop ()
        end
      in
      loop ()
  | Bursty { rate_tps; burst } ->
      if burst <= 0 then invalid_arg "Open_loop.arrival_times: burst must be positive";
      let mean = 1000.0 *. float_of_int burst /. rate_tps in
      let rec loop () =
        t := !t +. Rng.exponential rng ~mean;
        if !t < horizon_ms then begin
          for _ = 1 to burst do
            out := !t :: !out
          done;
          loop ()
        end
      in
      loop ()
  | Piecewise { segments } ->
      let segs = Array.of_list segments in
      let n = Array.length segs in
      Array.iteri
        (fun i (start, rate) ->
          if rate < 0.0 then
            invalid_arg "Open_loop.arrival_times: negative segment rate";
          if i > 0 && start <= fst segs.(i - 1) then
            invalid_arg "Open_loop.arrival_times: segment starts must ascend")
        segs;
      let seg_end i = if i + 1 < n then fst segs.(i + 1) else horizon_ms in
      (* Walk the segments, drawing exponential gaps at the current
         segment's rate. A gap that overshoots the segment boundary is
         discarded and redrawn from the boundary at the new rate —
         exact for a piecewise-constant Poisson process, by
         memorylessness. *)
      t := Float.max 0.0 (fst segs.(0));
      let i = ref 0 in
      while !i < n && !t < horizon_ms do
        let rate = snd segs.(!i) in
        let e = Float.min (seg_end !i) horizon_ms in
        if rate <= 0.0 then begin
          t := e;
          incr i
        end
        else begin
          let next = !t +. Rng.exponential rng ~mean:(1000.0 /. rate) in
          if next < e then begin
            t := next;
            out := !t :: !out
          end
          else begin
            t := e;
            incr i
          end
        end
      done);
  List.rev !out

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

let run_one ?(seed = 17) ?(sites = 24) ?(mix = Debit_credit) ?(keys = 64)
    ?(theta = 0.99) ?(shards_per_site = 4) ?(executors_per_shard = 4)
    ?(lock_timeout_ms = 50.0) ?batch ~arrival ~horizon_ms () =
  let executors = shards_per_site * executors_per_shard in
  let config = State.default_config ~threads:executors () in
  let c =
    Camelot.Cluster.create ~seed ~model:Camelot_mach.Cost_model.vax ~config
      ~logger:Camelot.Cluster.Adaptive ~lock_timeout_ms ~sites ()
  in
  let engine = Camelot.Cluster.engine c in
  let dispatches =
    Array.init sites (fun site ->
        Dispatch.create ~shards:shards_per_site
          ~executors_per_shard ?batch
          (Camelot.Cluster.node c site).Camelot.Cluster.site)
  in
  let rng = Rng.create ~seed:(seed * 8191) in
  let arrivals_rng = Rng.split rng in
  let draw_rng = Rng.split rng in
  let zipf = Rng.Zipf.create ~n:keys ~theta in
  let lat = Stats.Tail.create () in
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
        Stats.Tail.add lat (Fiber.now () -. arrived)
    | Protocol.Aborted -> incr aborted
    | exception Camelot_server.Data_server.Lock_timeout _ ->
        (* bounded lock wait expired (hot-key convoy or deadlock):
           abort and release whatever we hold *)
        Tranman.abort tm tid;
        incr aborted
  in
  (* one engine timer per arrival — the open loop itself *)
  let times = arrival_times arrival ~rng:arrivals_rng ~horizon_ms in
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
  {
    offered_tps = offered_rate arrival;
    arrivals = n_arrivals;
    committed = !committed;
    aborted = !aborted;
    backlog = !submitted - done_;
    completed_tps = float_of_int !committed /. (horizon_ms /. 1000.0);
    abort_rate =
      (if done_ = 0 then 0.0 else float_of_int !aborted /. float_of_int done_);
    mean_ms = Stats.Tail.mean lat;
    p50_ms = (if Stats.Tail.count lat = 0 then 0.0 else Stats.Tail.p50 lat);
    p99_ms = (if Stats.Tail.count lat = 0 then 0.0 else Stats.Tail.p99 lat);
    p999_ms = (if Stats.Tail.count lat = 0 then 0.0 else Stats.Tail.p999 lat);
    max_shard_depth;
  }

(* Offered loads for the standard sweep: the low end is comfortably
   under capacity, the high end far past the knee. *)
let load_range = [ 100.0; 200.0; 400.0; 800.0; 1600.0 ]

let sweep ?seed ?sites ?mix ?keys ?theta ?shards_per_site ?executors_per_shard
    ?lock_timeout_ms ?batch ?(loads = load_range) ?(horizon_ms = 5_000.0) () =
  List.map
    (fun rate ->
      run_one ?seed ?sites ?mix ?keys ?theta ?shards_per_site
        ?executors_per_shard ?lock_timeout_ms ?batch
        ~arrival:(Poisson { rate_tps = rate })
        ~horizon_ms ())
    loads

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

let run ?sites ?mix ?batch ?loads ?horizon_ms () =
  let points = sweep ?sites ?mix ?batch ?loads ?horizon_ms () in
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

(* Diurnal/trace replay: one run of a [Piecewise] arrival process,
   reported as the familiar sweep row plus the shape of the curve. *)
let run_piecewise ?sites ?mix ?batch ~arrival ~horizon_ms () =
  let segments =
    match arrival with
    | Piecewise { segments } -> segments
    | _ -> invalid_arg "Open_loop.run_piecewise: arrival must be Piecewise"
  in
  let p = run_one ?sites ?mix ?batch ~arrival ~horizon_ms () in
  let trough =
    List.fold_left (fun acc (_, r) -> Float.min acc r) infinity segments
  in
  Report.header
    "Open loop, diurnal arrivals: piecewise-rate Poisson, Zipf(0.99) keys, \
     queue-sharded execution";
  Printf.printf
    "%d rate segments over %.0f ms: peak %.0f tps, trough %.0f tps\n"
    (List.length segments) horizon_ms p.offered_tps trough;
  Report.table
    ~columns:
      [
        "PEAK TPS";
        "DONE TPS";
        "ABORT%";
        "p50 ms";
        "p99 ms";
        "p999 ms";
        "BACKLOG";
        "MAXQ";
      ]
    [ pp_row p ];
  (if p.arrivals > 0 && float_of_int p.backlog > 0.1 *. float_of_int p.arrivals
   then
     print_endline
       "Peak load saturates the executors: the backlog left at the horizon \
        exceeds 10% of arrivals."
   else
     print_endline
       "Completions track the diurnal curve: the trough drains what the peak \
        queues.");
  p
