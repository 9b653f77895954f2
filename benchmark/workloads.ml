(* The four benchmark workloads and the measurement scaffolding they
   share. Everything here drives the simulator from outside, through
   public functions only, and passes no host-only execution knob
   (timer backend, domain count, dispatch batching): what is measured
   is the default execution path.

   A workload is a list of points. A point builds a fresh cluster,
   warms it up (set-up time), then runs one measured window followed by
   a drain (run time), and finally checks the cluster's state. Headline
   points feed latency, throughput and attempts; rung points form the
   goodput ladder. Layer counters cover every measured window. *)

open Camelot_sim
open Camelot_core
module Cluster = Camelot.Cluster
module Metrics = Camelot.Metrics
module Cost_model = Camelot_mach.Cost_model
module Dispatch = Camelot_mach.Dispatch
module Data_server = Camelot_server.Data_server
module Lock_table = Camelot_lock.Lock_table
module Log = Camelot_wal.Log
module Lan = Camelot_net.Lan

type scale = Full | Smoke

let wall = Unix.gettimeofday

(* A transaction committed more than this long after it was due misses
   its deadline: it does not count towards goodput. *)
let goodput_limit_ms = 1000.0

(* An aborted attempt is retried after a random pause whose mean
   doubles with each of the first aborts (up to 4x), so every
   transaction the benchmark issues eventually commits, latency carries
   the cost of its aborts, and overload does not turn into a retry
   storm. *)
let retry_backoff_ms = 50.0

(* After the last transaction resolves, protocol tails (delayed
   commit-acks, End records, lazy log flushes) get this long to finish
   before the cluster is checked. *)
let drain_tail_ms = 30_000.0

(* A drain that has not resolved every transaction by then fails the
   run. *)
let max_drain_ms = 300_000.0

(* Layer counters, read through public accessors. A window's share is
   the difference of the snapshots at its two ends. *)
type counters = {
  events : int;
  grants : int;
  contended : int;
  forces : int;
  writes : int;
  batch_writes : int;
  batch_records : int;
  force_waits : int;
  force_wait_ms : float;
  datagrams : int;
  dropped : int;
  cpu_busy_ms : float;
}

let no_counters =
  {
    events = 0;
    grants = 0;
    contended = 0;
    forces = 0;
    writes = 0;
    batch_writes = 0;
    batch_records = 0;
    force_waits = 0;
    force_wait_ms = 0.0;
    datagrams = 0;
    dropped = 0;
    cpu_busy_ms = 0.0;
  }

let snapshot c =
  let m = Metrics.collect c in
  let sites = List.init (Cluster.sites c) Fun.id in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sites in
  let locks s = Data_server.locks (Cluster.server c s) in
  let batch s = Log.batch_stats (Cluster.log c s) in
  {
    events = Engine.executed (Cluster.engine c);
    grants = sum (fun s -> Lock_table.grants (locks s));
    contended = sum (fun s -> Lock_table.contended_grants (locks s));
    forces = Metrics.total_log_forces m;
    writes = Metrics.total_disk_writes m;
    batch_writes = sum (fun s -> (batch s).Log.bs_writes);
    batch_records = sum (fun s -> (batch s).Log.bs_records);
    force_waits = sum (fun s -> (batch s).Log.bs_force_lat_n);
    force_wait_ms =
      List.fold_left
        (fun acc s ->
          let b = batch s in
          acc +. (float_of_int b.Log.bs_force_lat_n *. b.Log.bs_force_lat_mean_ms))
        0.0 sites;
    datagrams = List.fold_left (fun acc l -> acc + Lan.sent l) 0 (Cluster.lans c);
    dropped = List.fold_left (fun acc l -> acc + Lan.dropped l) 0 (Cluster.lans c);
    cpu_busy_ms =
      List.fold_left
        (fun acc (s : Metrics.site_metrics) -> acc +. s.cpu_busy_ms)
        0.0 m.Metrics.sites;
  }

(* [a + (c - b)]: add the window between snapshots [b] and [c] to [a]. *)
let accumulate a b c =
  let ( +- ) x (y, z) = x + (z - y) and ( +-. ) x (y, z) = x +. (z -. y) in
  {
    events = a.events +- (b.events, c.events);
    grants = a.grants +- (b.grants, c.grants);
    contended = a.contended +- (b.contended, c.contended);
    forces = a.forces +- (b.forces, c.forces);
    writes = a.writes +- (b.writes, c.writes);
    batch_writes = a.batch_writes +- (b.batch_writes, c.batch_writes);
    batch_records = a.batch_records +- (b.batch_records, c.batch_records);
    force_waits = a.force_waits +- (b.force_waits, c.force_waits);
    force_wait_ms = a.force_wait_ms +-. (b.force_wait_ms, c.force_wait_ms);
    datagrams = a.datagrams +- (b.datagrams, c.datagrams);
    dropped = a.dropped +- (b.dropped, c.dropped);
    cpu_busy_ms = a.cpu_busy_ms +-. (b.cpu_busy_ms, c.cpu_busy_ms);
  }

(* What one repeat of a workload measured. [setup_s], [run_s],
   [create_ms] and the [gc] fields are host measurements; everything
   else is virtual and must repeat exactly. *)
type meter = {
  tracer : Span.t option;
  mutable setup_s : float;
  mutable run_s : float;
  create_ms : Samples.t;  (* wall ms of each Cluster.create *)
  lat : Samples.t;  (* headline commits: due time -> commit, virtual ms *)
  mutable window_ms : float;  (* headline virtual time *)
  mutable attempted : int;  (* headline transactions issued *)
  mutable committed : int;
  mutable attempts : int;  (* headline begins, retries included *)
  mutable rungs : (float * float) list;  (* goodput ladder: (rate, goodput) *)
  mutable txns : int;  (* transactions issued in every measured window *)
  mutable timeouts : int;
  mutable lost : int;  (* refused, or unfinished after the drain *)
  mutable pending_peak : int;
  mutable counters : counters;  (* window + drain *)
  mutable cpu_window_ms : float;  (* busy CPU during the windows only *)
  mutable cpu_capacity_ms : float;
  mutable dispatch_max_depth : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable retained_words : float;
  mutable failures : string list;
}

let meter ~traced =
  {
    tracer = (if traced then Some (Span.create ()) else None);
    setup_s = 0.0;
    run_s = 0.0;
    create_ms = Samples.create ();
    lat = Samples.create ();
    window_ms = 0.0;
    attempted = 0;
    committed = 0;
    attempts = 0;
    rungs = [];
    txns = 0;
    timeouts = 0;
    lost = 0;
    pending_peak = 0;
    counters = no_counters;
    cpu_window_ms = 0.0;
    cpu_capacity_ms = 0.0;
    dispatch_max_depth = 0;
    minor_words = 0.0;
    promoted_words = 0.0;
    retained_words = 0.0;
    failures = [];
  }

let fail m fmt = Printf.ksprintf (fun s -> m.failures <- s :: m.failures) fmt

(* Every virtual quantity of a repeat, printed exactly: two repeats, or
   a traced and an untraced run, must produce the same string. *)
let fingerprint m =
  let c = m.counters in
  Printf.sprintf
    "lat=%s window=%h attempted=%d committed=%d attempts=%d rung=%s txns=%d timeouts=%d lost=%d pending=%d events=%d grants=%d \
     contended=%d forces=%d writes=%d batches=%d/%d waits=%d/%h dgrams=%d \
     dropped=%d cpu=%h/%h/%h depth=%d"
    (Samples.digest m.lat) m.window_ms m.attempted m.committed m.attempts
    (String.concat "," (List.map (fun (r, g) -> Printf.sprintf "%h:%h" r g) m.rungs))
    m.txns m.timeouts m.lost m.pending_peak c.events c.grants c.contended
    c.forces c.writes c.batch_writes c.batch_records c.force_waits
    c.force_wait_ms c.datagrams c.dropped c.cpu_busy_ms m.cpu_window_ms
    m.cpu_capacity_ms m.dispatch_max_depth

(* {1 Points} *)

type role = Headline | Rung of float  (* offered tps *)

type ctx = {
  m : meter;
  c : Cluster.t;
  dispatch : Dispatch.t array;  (* one per site, or none *)
  role : role;
  protocol : Protocol.commit_protocol;
  rng : Rng.t;
  mutable measuring : bool;
  mutable next_txn : int;
  mutable inflight : int;
  mutable rung_on_time : int;
  expected : (int * string, int) Hashtbl.t;
      (* committed value of every key the committed transactions wrote *)
}

type txn = {
  id : int;
  span : int;  (* root span id when traced, else -1 *)
  origin : int;
  steps : (int * Data_server.op) list;  (* (site, operation), in order *)
  due : float;
  measured : bool;
  mutable aborts : int;
}

let now ctx = Engine.now (Cluster.engine ctx.c)

let new_txn ctx ~origin ~due steps =
  let measured = ctx.measuring in
  let id = ctx.next_txn in
  ctx.next_txn <- id + 1;
  ctx.inflight <- ctx.inflight + 1;
  if measured then begin
    let m = ctx.m in
    m.txns <- m.txns + 1;
    if ctx.role = Headline then m.attempted <- m.attempted + 1;
    m.pending_peak <- max m.pending_peak (Engine.pending (Cluster.engine ctx.c))
  end;
  let span =
    match ctx.m.tracer with Some t when measured -> Span.fresh t | _ -> -1
  in
  { id; span; origin; steps; due; measured; aborts = 0 }

let tracer ctx txn = if txn.measured then ctx.m.tracer else None

let child_span ctx txn ~name ~start_ms =
  match tracer ctx txn with
  | Some t ->
      Span.add t ~name ~track:txn.origin ~txn:txn.id ~parent:txn.span ~start_ms
        ~stop_ms:(now ctx)
  | None -> ()

(* One attempt: begin, every step in order, commit. A lock wait that
   times out aborts the attempt. *)
let attempt ctx txn =
  let tm = Cluster.tranman ctx.c txn.origin in
  let wrap name f =
    Span.wrap (tracer ctx txn) ~name ~track:txn.origin ~txn:txn.id
      ~parent:txn.span f
  in
  if txn.measured && ctx.role = Headline then ctx.m.attempts <- ctx.m.attempts + 1;
  let tid = wrap "core.begin" (fun () -> Tranman.begin_transaction tm) in
  match
    List.iter
      (fun (site, op) ->
        let name =
          if site = txn.origin then "server.op.local" else "server.op.remote"
        in
        ignore
          (wrap name (fun () -> Cluster.op ctx.c ~origin:txn.origin tid ~site op)
            : int))
      txn.steps
  with
  | () ->
      let local = List.for_all (fun (s, _) -> s = txn.origin) txn.steps in
      let name = if local then "core.commit.local" else "core.commit.dist" in
      wrap name (fun () -> Tranman.commit tm ~protocol:ctx.protocol tid)
      = Protocol.Committed
  | exception Data_server.Lock_timeout _ ->
      if txn.measured then ctx.m.timeouts <- ctx.m.timeouts + 1;
      Tranman.abort tm tid;
      false

let finish ctx txn =
  ctx.inflight <- ctx.inflight - 1;
  List.iter
    (function
      | site, Data_server.Add (key, d) ->
          let k = (site, key) in
          let v = Option.value ~default:0 (Hashtbl.find_opt ctx.expected k) in
          Hashtbl.replace ctx.expected k (v + d)
      | _, (Data_server.Read _ | Data_server.Write _) -> ())
    txn.steps;
  if txn.measured then begin
    let m = ctx.m in
    let t = now ctx in
    let lat = t -. txn.due in
    (match ctx.role with
    | Headline ->
        m.committed <- m.committed + 1;
        Samples.add m.lat lat
    | Rung _ ->
        if lat <= goodput_limit_ms then ctx.rung_on_time <- ctx.rung_on_time + 1);
    match m.tracer with
    | Some tr ->
        Span.add_with_id tr ~id:txn.span ~name:"txn" ~track:txn.origin
          ~txn:txn.id ~parent:(-1) ~start_ms:txn.due ~stop_ms:t
    | None -> ()
  end

(* Fibers must not die quietly: an unexpected exception fails the run. *)
let guard ctx f =
  try f () with e -> fail ctx.m "unexpected exception: %s" (Printexc.to_string e)

let backoff ctx txn =
  txn.aborts <- txn.aborts + 1;
  let scale = float_of_int (1 lsl min 2 (txn.aborts - 1)) in
  Rng.exponential ctx.rng ~mean:(retry_backoff_ms *. scale)

(* Retry in the calling fiber until the transaction commits. *)
let rec commit_blocking ctx txn =
  if attempt ctx txn then finish ctx txn
  else begin
    Fiber.sleep (backoff ctx txn);
    commit_blocking ctx txn
  end

(* Hand the transaction to its origin site's dispatcher; an aborted
   attempt re-enters the queue after a backoff. *)
let rec submit ctx txn ~key ~queued_at =
  let job () =
    guard ctx (fun () ->
        child_span ctx txn ~name:"dispatch.wait" ~start_ms:queued_at;
        if attempt ctx txn then finish ctx txn
        else
          Engine.schedule (Cluster.engine ctx.c)
            ~delay:(backoff ctx txn)
            (fun () -> submit ctx txn ~key ~queued_at:(now ctx)))
  in
  if not (Dispatch.submit_key ctx.dispatch.(txn.origin) ~key job) then begin
    ctx.m.lost <- ctx.m.lost + 1;
    ctx.inflight <- ctx.inflight - 1;
    fail ctx.m "site %d's dispatcher refused a transaction" txn.origin
  end

(* Open loop: Poisson arrivals at [rate_tps] until [until_ms]. Each
   arrival is an engine event that schedules the next, so the
   generator is never late and keeps one timer pending. [draw] picks
   (origin, routing key, steps). *)
let open_loop ctx ~rate_tps ~until_ms ~draw =
  let gaps = Rng.split ctx.rng in
  let rec next t =
    let t = t +. Rng.exponential gaps ~mean:(1000.0 /. rate_tps) in
    if t < until_ms then
      Engine.schedule_at (Cluster.engine ctx.c) ~time:t (fun () ->
          let origin, key, steps = draw ctx.rng in
          submit ctx (new_txn ctx ~origin ~due:t steps) ~key ~queued_at:t;
          next t)
  in
  next (now ctx)

(* Closed loop: [workers] clients per site, each thinking for an
   exponential pause before its next transaction, until [until_ms]. *)
let closed_loop ctx ~workers ~think_ms ~until_ms ~draw =
  for origin = 0 to Cluster.sites ctx.c - 1 do
    for _ = 1 to workers do
      let rng = Rng.split ctx.rng in
      Fiber.spawn (Cluster.engine ctx.c) (fun () ->
          guard ctx (fun () ->
              let rec loop () =
                Fiber.sleep (Rng.exponential rng ~mean:think_ms);
                if Fiber.now () < until_ms then begin
                  commit_blocking ctx
                    (new_txn ctx ~origin ~due:(Fiber.now ()) (draw rng origin));
                  loop ()
                end
              in
              loop ()))
    done
  done

(* One client issuing [n] transactions back to back from site 0. *)
let sequential ctx ~n steps =
  Fiber.run (Cluster.engine ctx.c) (fun () ->
      guard ctx (fun () ->
          for _ = 1 to n do
            commit_blocking ctx (new_txn ctx ~origin:0 ~due:(Fiber.now ()) steps)
          done))

(* Run until every transaction has resolved, then the protocol tail. *)
let drain ctx =
  let cap = now ctx +. max_drain_ms in
  while ctx.inflight > 0 && now ctx < cap do
    Cluster.run ~until:(now ctx +. 1000.0) ctx.c
  done;
  Cluster.run ~until:(now ctx +. drain_tail_ms) ctx.c

(* After the drain: nothing in flight, no lock held, no datagram lost,
   and every stored value exactly what the committed transactions
   wrote. *)
let check ctx =
  let m = ctx.m in
  if ctx.inflight <> 0 then begin
    m.lost <- m.lost + ctx.inflight;
    fail m "%d transactions unfinished after the drain" ctx.inflight
  end;
  let dropped = List.fold_left (fun a l -> a + Lan.dropped l) 0 (Cluster.lans ctx.c) in
  if dropped <> 0 then fail m "%d datagrams dropped" dropped;
  for site = 0 to Cluster.sites ctx.c - 1 do
    let srv = Cluster.server ctx.c site in
    let held = List.length (Lock_table.all_held (Data_server.locks srv)) in
    if held <> 0 then fail m "site %d still holds %d locks after the drain" site held;
    List.iter
      (fun key ->
        if not (Hashtbl.mem ctx.expected (site, key)) && Data_server.peek srv key <> 0
        then fail m "site %d key %s written by no committed transaction" site key)
      (Data_server.keys srv)
  done;
  Hashtbl.iter
    (fun (site, key) want ->
      let got = Data_server.peek (Cluster.server ctx.c site) key in
      if got <> want then
        fail m "site %d key %s holds %d, committed transactions wrote %d" site
          key got want)
    ctx.expected

let timed_create m f =
  let t0 = wall () in
  let c = f () in
  Samples.add m.create_ms ((wall () -. t0) *. 1000.0);
  c

(* Build, warm up, measure, drain, check. [setup] builds the cluster
   and its dispatchers; [start] sets the load going and runs the
   warm-up; [measure] runs the measured window and returns its virtual
   length. *)
let point m ~role ~seed ~protocol ~setup ~start ~measure =
  Option.iter Span.next_point m.tracer;
  let t0 = wall () in
  let c, dispatch = setup ~seed in
  let ctx =
    {
      m;
      c;
      dispatch;
      role;
      protocol;
      rng = Rng.create ~seed:((seed * 7919) + 1);
      measuring = false;
      next_txn = 0;
      inflight = 0;
      rung_on_time = 0;
      expected = Hashtbl.create 1024;
    }
  in
  start ctx;
  m.setup_s <- m.setup_s +. (wall () -. t0);
  ctx.measuring <- true;
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let gc0 = Gc.quick_stat () in
  let c0 = snapshot c in
  let t1 = wall () in
  let window_ms = measure ctx in
  let c_window = snapshot c in
  drain ctx;
  m.run_s <- m.run_s +. (wall () -. t1);
  let gc1 = Gc.quick_stat () in
  let c1 = snapshot c in
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  m.minor_words <- m.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  m.promoted_words <- m.promoted_words +. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
  m.retained_words <- m.retained_words +. float_of_int (live1 - live0);
  m.counters <- accumulate m.counters c0 c1;
  m.cpu_window_ms <- m.cpu_window_ms +. (c_window.cpu_busy_ms -. c0.cpu_busy_ms);
  let model = Camelot_mach.Site.model (Cluster.node c 0).Cluster.site in
  m.cpu_capacity_ms <-
    m.cpu_capacity_ms
    +. (window_ms *. float_of_int (Cluster.sites c * model.Cost_model.cpus));
  Array.iter
    (fun d -> m.dispatch_max_depth <- max m.dispatch_max_depth (Dispatch.max_depth d))
    dispatch;
  (match role with
  | Headline -> m.window_ms <- m.window_ms +. window_ms
  | Rung rate ->
      m.rungs <- m.rungs @ [ (rate, float_of_int ctx.rung_on_time /. (window_ms /. 1000.0)) ]);
  check ctx;
  ctx

(* {1 The workloads} *)

type workload = {
  name : string;
  why : string;
  run : scale -> meter -> seed:int -> unit;
}

let key i = "k" ^ string_of_int i
let warmup_ms = 10_000.0

(* Both oltp mixes share one rig: 24 VAX sites, each with a 4 x 4
   queue-sharded dispatcher, 16 TranMan threads, the adaptive
   group-commit logger and 50 ms lock timeouts. A headline window is
   followed by a goodput ladder of 30 s rungs, each on a fresh cluster,
   whose top rung lies past the rig's knee. *)
let oltp_sites = 24

let oltp_setup m ~seed =
  let config = State.default_config ~threads:16 () in
  let c =
    timed_create m (fun () ->
        Cluster.create ~seed ~model:Cost_model.vax ~config
          ~logger:Cluster.Adaptive ~lock_timeout_ms:50.0 ~sites:oltp_sites ())
  in
  let dispatch =
    Array.init oltp_sites (fun s ->
        Dispatch.create ~shards:4 ~executors_per_shard:4
          (Cluster.node c s).Cluster.site)
  in
  (c, dispatch)

let oltp ~rate_tps ~window_s ~rung_s ~ladder ~draw ~law scale m ~seed =
  let window_s, rung_s, warm_ms =
    match scale with
    | Full -> (window_s, rung_s, warmup_ms)
    | Smoke -> (2.0, 1.0, 500.0)
  in
  let run_point ~role ~idx ~rate_tps ~window_s =
    let window_ms = window_s *. 1000.0 in
    let ctx =
      point m ~role ~seed:((seed * 16) + idx) ~protocol:Protocol.Two_phase
        ~setup:(oltp_setup m)
        ~start:(fun ctx ->
          open_loop ctx ~rate_tps ~until_ms:(warm_ms +. window_ms) ~draw;
          Cluster.run ~until:warm_ms ctx.c)
        ~measure:(fun ctx ->
          Cluster.run ~until:(warm_ms +. window_ms) ctx.c;
          window_ms)
    in
    law ctx
  in
  run_point ~role:Headline ~idx:0 ~rate_tps ~window_s;
  List.iteri
    (fun i rate_tps ->
      run_point ~role:(Rung rate_tps) ~idx:(i + 1) ~rate_tps ~window_s:rung_s)
    ladder

let no_law _ = ()

(* Transfers over 64 hot accounts per site, Zipf 0.99; one in ten
   credits the next site over, through 2PC. The debit/credit pair is
   locked in draw order, so hot-key cycles deadlock and resolve by
   lock timeout. With retries the knee sits near 120 tps; the headline
   rate of 80 tps keeps the hottest keys busy but stable. *)
let oltp_contended =
  let zipf = Rng.Zipf.create ~n:64 ~theta:0.99 in
  let draw rng =
    let origin = Rng.int_below rng oltp_sites in
    let debit = Rng.Zipf.draw zipf rng in
    let credit = Rng.Zipf.draw zipf rng in
    let credit_site =
      if Rng.bool rng ~p:0.1 then (origin + 1) mod oltp_sites else origin
    in
    ( origin,
      debit,
      [
        (origin, Data_server.Add (key debit, -1));
        (credit_site, Data_server.Add (key credit, 1));
      ] )
  in
  (* money is conserved: every transfer moves one unit *)
  let law ctx =
    let total = ref 0 in
    for site = 0 to oltp_sites - 1 do
      let srv = Cluster.server ctx.c site in
      List.iter (fun k -> total := !total + Data_server.peek srv k) (Data_server.keys srv)
    done;
    if !total <> 0 then fail ctx.m "balances sum to %d, not 0" !total
  in
  {
    name = "oltp-contended";
    why =
      "hot-key transfers with 10% cross-site 2PC: lock waits, timeout \
       aborts and shard queueing dominate";
    run =
      oltp ~rate_tps:80.0 ~window_s:800.0 ~rung_s:30.0
        ~ladder:[ 40.0; 80.0; 120.0; 160.0 ] ~draw ~law;
  }

(* 90% single-key lookups and 10% deposits over 4096 keys per site,
   Zipf 0.5: the bypass case for locks, the log and the network. The
   knee sits near 700 tps. *)
let oltp_read_mostly =
  let zipf = Rng.Zipf.create ~n:4096 ~theta:0.5 in
  let draw rng =
    let origin = Rng.int_below rng oltp_sites in
    let k = Rng.Zipf.draw zipf rng in
    let op =
      if Rng.bool rng ~p:0.9 then Data_server.Read (key k)
      else Data_server.Add (key k, 1)
    in
    (origin, k, [ (origin, op) ])
  in
  {
    name = "oltp-read-mostly";
    why =
      "90% lookups, 10% deposits on a wide key space: bypasses locks, log \
       and network, so the engine, IPC and CPU carry the load";
    run =
      oltp ~rate_tps:200.0 ~window_s:300.0 ~rung_s:30.0
        ~ladder:[ 200.0; 400.0; 600.0; 700.0; 800.0 ] ~draw ~law:no_law;
  }

(* Closed loop, 8 VAX sites x 4 clients, 50 ms think time. Each
   transaction adds 1 to one of 256 keys at 4 consecutive sites,
   touched in ascending site order (deadlock-free), and commits by 2PC
   on the paper-default Fixed logger without group commit. *)
let commit_fanout =
  let sites = 8 and width = 4 in
  let setup m ~seed =
    let config = State.default_config () in
    config.State.vote_timeout_ms <- 2_000.0;
    config.State.subordinate_timeout_ms <- 10_000.0;
    let c =
      timed_create m (fun () ->
          Cluster.create ~seed ~model:Cost_model.vax ~config ~sites ())
    in
    (c, [||])
  in
  let draw rng origin =
    let k = key (Rng.int_below rng 256) in
    List.init width (fun i -> (origin + i) mod sites)
    |> List.sort compare
    |> List.map (fun s -> (s, Data_server.Add (k, 1)))
  in
  let run scale m ~seed =
    let window_ms, warm_ms =
      match scale with
      | Full -> (1_200_000.0, 60_000.0)
      | Smoke -> (3000.0, 500.0)
    in
    ignore
      (point m ~role:Headline ~seed ~protocol:Protocol.Two_phase
         ~setup:(setup m)
         ~start:(fun ctx ->
           closed_loop ctx ~workers:4 ~think_ms:50.0
             ~until_ms:(warm_ms +. window_ms) ~draw;
           Cluster.run ~until:warm_ms ctx.c)
         ~measure:(fun ctx ->
           Cluster.run ~until:(warm_ms +. window_ms) ctx.c;
           window_ms)
        : ctx)
  in
  {
    name = "commit-fanout";
    why =
      "every commit is 2PC over 4 sites: protocol code, datagrams and \
       prepare forces dominate, with no dispatcher";
    run;
  }

(* The paper's Fig 2/3 and Table 3 setting: one client, RT cost model,
   every paper-reproduction default. For 2PC and the non-blocking
   protocol at 0..4 subordinates, a fresh cluster runs sequential
   minimal update transactions. *)
let latency_ladder =
  let run scale m ~seed =
    let n, warm_n = match scale with Full -> (5000, 100) | Smoke -> (40, 2) in
    List.iteri
      (fun i (protocol, subs) ->
        let steps = List.init (subs + 1) (fun s -> (s, Data_server.Add ("elt", 1))) in
        ignore
          (point m ~role:Headline ~seed:((seed * 16) + i) ~protocol
             ~setup:(fun ~seed ->
               (timed_create m (fun () -> Cluster.create ~seed ~sites:(subs + 1) ()), [||]))
             ~start:(fun ctx -> sequential ctx ~n:warm_n steps)
             ~measure:(fun ctx ->
               let t0 = now ctx in
               sequential ctx ~n steps;
               now ctx -. t0)
            : ctx))
      (List.concat_map
         (fun p -> List.init 5 (fun subs -> (p, subs)))
         [ Protocol.Two_phase; Protocol.Nonblocking ])
  in
  {
    name = "latency-ladder";
    why =
      "unloaded 2PC and non-blocking commits at 0-4 subordinates on the \
       paper defaults: no queueing, ten cluster builds";
    run;
  }

let all = [ oltp_contended; oltp_read_mostly; commit_fanout; latency_ladder ]
