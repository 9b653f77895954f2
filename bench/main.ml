(* The full benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (§4) from the simulation — the reproduction proper. Part 2 runs
   Bechamel micro-benchmarks of the library's own hot paths (wall-clock
   cost of simulating the systems, one Test.make per reproduced
   artifact plus the core data structures).

   The whole run is summarised into a machine-readable JSON baseline
   (default [BENCH.new.json], override with [--json FILE]): every
   micro-benchmark's ns/run and the Part 1 wall clock, for compare.exe
   to hold against the committed BENCH.json. Every entry is wall clock spent by the simulator; the
   modelled results Part 1 prints are pinned exactly by the tier-1
   goldens in test/golden, not here.

   Usage: main.exe [--quick] [--json FILE]. --quick is a fast pass
   (fewer repetitions). Any other argument, or --json without a file,
   prints usage and exits 2 before any work starts. *)

open Bechamel
open Toolkit

(* Parsed before the module-level rigs below are built: a mistyped flag
   must fail, not run the bench and overwrite the default baseline. *)
let quick, json_path =
  let usage () =
    prerr_endline "usage: main.exe [--quick] [--json FILE]";
    exit 2
  in
  let rec parse quick path = function
    | [] -> (quick, path)
    | "--quick" :: rest -> parse true path rest
    | "--json" :: file :: rest when file <> "" && file.[0] <> '-' ->
        parse quick file rest
    | _ -> usage ()
  in
  parse false "BENCH.new.json" (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures *)

let reproduce () =
  let reps = if quick then 40 else 150 in
  let horizon_ms = if quick then 20_000.0 else 60_000.0 in
  Camelot_experiments.Table1.run ();
  Camelot_experiments.Table2.run ~reps ();
  Camelot_experiments.Rpc_breakdown.run ~reps:(if quick then 200 else 1000) ();
  Camelot_experiments.Fig2.run ~reps ();
  Camelot_experiments.Table3.run ~reps ();
  Camelot_experiments.Fig3.run ~reps ();
  Camelot_experiments.Fig4.run ~horizon_ms ();
  Camelot_experiments.Fig5.run ~horizon_ms ();
  Camelot_experiments.Multicast.run ~reps:(if quick then 100 else 300) ();
  Camelot_experiments.Ablations.run ~reps:(if quick then 30 else 80) ();
  (* keep this last: everything above must stay byte-identical across
     perf-only PRs, so new sections only ever append *)
  ignore (Camelot_experiments.Throughput.run ~horizon_ms () : _ list)

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks *)

let bench_heap () =
  let h = Camelot_sim.Heap.create () in
  for i = 0 to 999 do
    Camelot_sim.Heap.push h ~priority:(float_of_int ((i * 7919) mod 1000)) ~seq:i i
  done;
  let rec drain () =
    match Camelot_sim.Heap.pop h with Some _ -> drain () | None -> ()
  in
  drain ()

let bench_rng () =
  let rng = Camelot_sim.Rng.create ~seed:1 in
  let acc = ref 0.0 in
  for _ = 1 to 1000 do
    acc := !acc +. Camelot_sim.Rng.uniform rng
  done;
  !acc

let bench_engine () =
  let eng = Camelot_sim.Engine.create () in
  for i = 1 to 1000 do
    Camelot_sim.Engine.schedule eng ~delay:(float_of_int i) (fun () -> ())
  done;
  Camelot_sim.Engine.run eng

let bench_engine_cancel () =
  (* cancel-heavy workload, the shape of retransmit timers and commit
     timeouts: arm a timer per event, cancel four of five, run *)
  let eng = Camelot_sim.Engine.create () in
  for i = 1 to 1000 do
    let timer =
      Camelot_sim.Engine.schedule_timer eng ~delay:(float_of_int i) (fun () -> ())
    in
    if i mod 5 <> 0 then Camelot_sim.Engine.cancel eng timer
  done;
  Camelot_sim.Engine.run eng

(* Timer-queue scaling: schedule [n] pending timers spread over 2 s of
   virtual time, then drain. *)
let nop () = ()

let bench_timers n () =
  let eng = Camelot_sim.Engine.create () in
  for i = 0 to n - 1 do
    let delay = float_of_int ((i * 7919) land 2047) +. 0.25 in
    Camelot_sim.Engine.schedule eng ~delay nop
  done;
  Camelot_sim.Engine.run eng

let bench_engine_zero_delay () =
  (* same-instant storm: chains of delay = 0 events, the Fiber.yield /
     resumption pattern, served by the FIFO lane without heap traffic *)
  let eng = Camelot_sim.Engine.create () in
  let rec chain n () =
    if n > 0 then Camelot_sim.Engine.schedule eng ~delay:0.0 (chain (n - 1))
  in
  for _ = 1 to 10 do
    Camelot_sim.Engine.schedule eng ~delay:0.0 (chain 100)
  done;
  Camelot_sim.Engine.run eng

let bench_lock_table () =
  let eng = Camelot_sim.Engine.create () in
  let t =
    Camelot_lock.Lock_table.create eng ~is_ancestor:Camelot_core.Tid.is_ancestor
  in
  Camelot_sim.Fiber.spawn eng (fun () ->
      for i = 0 to 99 do
        let owner = Camelot_core.Tid.root ~origin:0 ~seq:i in
        Camelot_lock.Lock_table.acquire t ~owner ~key:"k" Camelot_lock.Lock_table.Shared;
        Camelot_lock.Lock_table.release_all t ~owner
      done);
  Camelot_sim.Engine.run eng

let bench_tid () =
  (* the commit pipeline's identifier arithmetic: pack, derive
     children, render (cache-hot), compare families *)
  let acc = ref 0 in
  for i = 0 to 99 do
    let root = Camelot_core.Tid.root ~origin:3 ~seq:i in
    let c1 = Camelot_core.Tid.child root ~n:1 in
    let c2 = Camelot_core.Tid.child c1 ~n:2 in
    acc :=
      !acc
      + String.length (Camelot_core.Tid.to_string c2)
      + (if Camelot_core.Tid.is_ancestor root c2 then 1 else 0)
      + (Camelot_core.Tid.family_key c2 land 0xff)
  done;
  !acc

let bench_lock_contended () =
  (* 50 exclusive requests on one key: one grant, 49 queued waiters
     drained FIFO as each holder releases *)
  let eng = Camelot_sim.Engine.create () in
  let t =
    Camelot_lock.Lock_table.create eng ~is_ancestor:Camelot_core.Tid.is_ancestor
  in
  for i = 0 to 49 do
    let owner = Camelot_core.Tid.root ~origin:0 ~seq:i in
    Camelot_sim.Fiber.spawn eng (fun () ->
        Camelot_lock.Lock_table.acquire t ~owner ~key:"k"
          Camelot_lock.Lock_table.Exclusive;
        Camelot_sim.Fiber.yield ();
        Camelot_lock.Lock_table.release_all t ~owner)
  done;
  Camelot_sim.Engine.run eng

let bench_wal_batched () =
  (* 8 writers force-committing through the logger daemon: LSN-ordered
     parking, adaptive batching, double-buffered platter writes *)
  let eng = Camelot_sim.Engine.create () in
  let site =
    Camelot_mach.Site.create eng ~id:0 ~model:Camelot_mach.Cost_model.rt
      ~rng:(Camelot_sim.Rng.create ~seed:3)
  in
  let log = Camelot_wal.Log.create ~policy:Camelot_wal.Log.Adaptive site in
  Camelot_wal.Log.start log ~flush_every:50.0;
  for _ = 1 to 8 do
    Camelot_sim.Fiber.spawn eng (fun () ->
        for i = 1 to 125 do
          ignore (Camelot_wal.Log.append_force log i : int)
        done)
  done;
  Camelot_sim.Engine.run ~until:10_000.0 eng

(* The foreground append path: a 1k-record spool loop on a fresh log,
   no forces. *)
let bench_wal_append () =
  let eng = Camelot_sim.Engine.create () in
  let site =
    Camelot_mach.Site.create eng ~id:0 ~model:Camelot_mach.Cost_model.rt
      ~rng:(Camelot_sim.Rng.create ~seed:3)
  in
  let log = Camelot_wal.Log.create site in
  for i = 0 to 999 do
    ignore (Camelot_wal.Log.append log i : int)
  done

(* Recovery-scan rigs, built once: a 10k-record log, full versus
   truncated to the newest 100 records. Scanning the truncated one
   must cost O(window), not O(history) — that ratio is the point of
   checkpoint truncation. *)
let scan_log_full, scan_log_truncated =
  let make () =
    let eng = Camelot_sim.Engine.create () in
    let site =
      Camelot_mach.Site.create eng ~id:0 ~model:Camelot_mach.Cost_model.rt
        ~rng:(Camelot_sim.Rng.create ~seed:3)
    in
    let log = Camelot_wal.Log.create site in
    Camelot_sim.Fiber.run eng (fun () ->
        for i = 0 to 9_999 do
          ignore (Camelot_wal.Log.append log i : int)
        done;
        Camelot_wal.Log.force log);
    log
  in
  let full = make () in
  let truncated = make () in
  Camelot_wal.Log.truncate truncated ~keep_from:9_900;
  (full, truncated)

let bench_recovery_scan log () =
  ignore
    (Camelot_wal.Log.fold_durable log ~init:0 ~f:(fun acc _ v -> acc + v) : int)

let run_txn protocol subs =
  let c = Camelot.Cluster.create ~sites:(subs + 1) () in
  let tm = Camelot.Cluster.tranman c 0 in
  Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let tid = Camelot_core.Tranman.begin_transaction tm in
      for site = 0 to subs do
        ignore
          (Camelot.Cluster.op c ~origin:0 tid ~site
             (Camelot_server.Data_server.Add ("x", 1))
            : int)
      done;
      Camelot_core.Tranman.commit tm ~protocol tid)

let tests =
  Test.make_grouped ~name:"camelot" ~fmt:"%s/%s"
    [
      Test.make ~name:"sim: heap 1k push+pop" (Staged.stage bench_heap);
      Test.make ~name:"sim: rng 1k draws" (Staged.stage (fun () -> ignore (bench_rng () : float)));
      Test.make ~name:"sim: engine 1k events" (Staged.stage bench_engine);
      Test.make ~name:"sim: engine 1k timers 80% cancelled"
        (Staged.stage bench_engine_cancel);
      Test.make ~name:"sim: engine 1k zero-delay storm"
        (Staged.stage bench_engine_zero_delay);
      Test.make ~name:"lock: 100 acquire/release" (Staged.stage bench_lock_table);
      Test.make ~name:"lock: 50 contended exclusive"
        (Staged.stage bench_lock_contended);
      Test.make ~name:"core: tid 100 pack/child/render"
        (Staged.stage (fun () -> ignore (bench_tid () : int)));
      Test.make ~name:"txn: local commit (Table 3 row 1)"
        (Staged.stage (fun () ->
             ignore (run_txn Camelot_core.Protocol.Two_phase 0 : Camelot_core.Protocol.outcome)));
      Test.make ~name:"txn: 2PC 1-sub commit (Fig 2)"
        (Staged.stage (fun () ->
             ignore (run_txn Camelot_core.Protocol.Two_phase 1 : Camelot_core.Protocol.outcome)));
      Test.make ~name:"txn: non-blocking 1-sub commit (Fig 3)"
        (Staged.stage (fun () ->
             ignore (run_txn Camelot_core.Protocol.Nonblocking 1 : Camelot_core.Protocol.outcome)));
      Test.make ~name:"cluster: build 4 sites (Figs 4-5 rig)"
        (Staged.stage (fun () -> ignore (Camelot.Cluster.create ~sites:4 () : Camelot.Cluster.t)));
      Test.make ~name:"txn: closed-loop 8 workers/site, 1 s (gc on)"
        (Staged.stage (fun () ->
             ignore
               (Camelot_experiments.Throughput.run_one
                  ~logger:(Camelot.Cluster.Group_commit { window_ms = 0.0 })
                  ~workers_per_site:8 ~horizon_ms:1000.0 ()
                 : Camelot_experiments.Throughput.result)));
      Test.make ~name:"wal: 1k append+force batched"
        (Staged.stage bench_wal_batched);
      Test.make ~name:"wal: 1k append (plain)" (Staged.stage bench_wal_append);
      Test.make ~name:"wal: recovery scan 10k records (full)"
        (Staged.stage (bench_recovery_scan scan_log_full));
      Test.make ~name:"wal: recovery scan 10k records (truncated)"
        (Staged.stage (bench_recovery_scan scan_log_truncated));
      Test.make ~name:"txn: closed-loop 4 sites, 8 workers/site, 1 s (gc on)"
        (Staged.stage (fun () ->
             ignore
               (Camelot_experiments.Throughput.run_one ~sites:4
                  ~logger:Camelot.Cluster.Adaptive ~workers_per_site:8
                  ~horizon_ms:1000.0 ()
                 : Camelot_experiments.Throughput.result)));
    ]

(* The timer-scaling group runs AFTER (and apart from) the main
   group, behind a [Gc.compact]: the 1M-pending runs grow the major
   heap by hundreds of MB, and any bench measured in the same process
   afterwards would pay their GC and locality tax — which is exactly
   the uniform phantom "regression" the baseline diff would flag. *)
let timer_tests =
  Test.make_grouped ~name:"camelot" ~fmt:"%s/%s"
    [
      Test.make ~name:"sim: timers pending=1000 (heap)"
        (Staged.stage (bench_timers 1_000));
      Test.make ~name:"sim: timers pending=100000 (heap)"
        (Staged.stage (bench_timers 100_000));
      Test.make ~name:"sim: timers pending=1000000 (heap)"
        (Staged.stage (bench_timers 1_000_000));
    ]

(* name -> ns/run estimates, sorted by name *)
let micro_benchmarks () =
  Camelot_experiments.Report.header "Micro-benchmarks (Bechamel, wall-clock)";
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.2 else 0.5))
      ~kde:(Some 1000) ()
  in
  let one_pass tests =
    let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let estimates = ref [] in
    Hashtbl.iter
      (fun name ols_result ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Some est
          | Some _ | None -> None
        in
        estimates := (name, ns) :: !estimates)
      results;
    !estimates
  in
  (* The short quick-mode quota makes a single OLS estimate noisy enough
     to trip the 25% bench-compare guard on ~15 us benchmarks; keep the
     per-name minimum over a few passes instead. *)
  let passes = if quick then 3 else 1 in
  let merged = Hashtbl.create 32 in
  let run_group tests =
    for _ = 1 to passes do
      List.iter
        (fun (name, ns) ->
          match (ns, Hashtbl.find_opt merged name) with
          | Some est, Some (Some best) ->
              if est < best then Hashtbl.replace merged name (Some est)
          | Some est, (Some None | None) -> Hashtbl.replace merged name (Some est)
          | None, Some _ -> ()
          | None, None -> Hashtbl.add merged name None)
        (one_pass tests)
    done
  in
  run_group tests;
  Gc.compact ();
  run_group timer_tests;
  let estimates =
    List.sort compare (Hashtbl.fold (fun n v acc -> (n, v) :: acc) merged [])
  in
  Camelot_experiments.Report.table ~columns:[ "BENCH"; "TIME" ]
    (List.map
       (fun (name, ns) ->
         let time =
           match ns with
           | Some est -> Printf.sprintf "%12.1f ns/run" est
           | None -> "(no estimate)"
         in
         [ name; time ])
       estimates);
  estimates

(* ------------------------------------------------------------------ *)
(* Machine-readable baseline *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_baseline ~path ~repro_wall_clock_s estimates =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"camelot-bench/1\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"reproduction_wall_clock_s\": %.6f,\n" repro_wall_clock_s;
  Printf.fprintf oc "  \"benchmarks_ns_per_run\": {\n";
  let n = List.length estimates in
  List.iteri
    (fun i (name, ns) ->
      let value =
        match ns with Some est -> Printf.sprintf "%.3f" est | None -> "null"
      in
      Printf.fprintf oc "    \"%s\": %s%s\n" (json_escape name) value
        (if i = n - 1 then "" else ","))
    estimates;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "bench: baseline written to %s\n" path

let () =
  let t0 = Unix.gettimeofday () in
  reproduce ();
  let repro_wall_clock_s = Unix.gettimeofday () -. t0 in
  let estimates = micro_benchmarks () in
  write_baseline ~path:json_path ~repro_wall_clock_s estimates;
  print_newline ();
  print_endline "bench: done."
