(* Tests for the simulated Mach layer: cost models, sites,
   crash/restart, dispatch executors, IPC/RPC. *)

open Camelot_sim
open Camelot_mach

let check_float = Alcotest.(check (float 1e-6))

let make_site ?(model = Cost_model.rt) ?(id = 0) eng =
  Site.create eng ~id ~model ~rng:(Rng.create ~seed:7)

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_rpc_legs_sum () =
  let legs = Cost_model.rpc_legs Cost_model.rt in
  let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 legs in
  check_float "legs sum to remote RPC" Cost_model.rt.Cost_model.remote_rpc_ms total

let test_rt_constants () =
  let m = Cost_model.rt in
  check_float "local IPC" 1.5 m.Cost_model.local_ipc_ms;
  check_float "log force" 15.0 m.Cost_model.log_force_ms;
  check_float "datagram" 10.0 m.Cost_model.datagram_ms;
  Alcotest.(check int) "uniprocessor" 1 m.Cost_model.cpus

let test_vax_profile () =
  let m = Cost_model.vax in
  (* §4.5: the tested Mach had a single run queue on one master
     processor — the model exposes one effective CPU *)
  Alcotest.(check int) "single effective CPU" 1 m.Cost_model.cpus;
  Alcotest.(check bool) "slower CPU" true
    (m.Cost_model.tranman_cpu_ms > Cost_model.rt.Cost_model.tranman_cpu_ms);
  Alcotest.(check bool) "slower logger" true
    (m.Cost_model.log_force_ms > Cost_model.rt.Cost_model.log_force_ms);
  Alcotest.(check bool) "heavy disk-manager CPU for updates" true
    (m.Cost_model.log_spool_cpu_ms > 10.0)

(* ------------------------------------------------------------------ *)
(* Site *)

let test_site_crash_kills_fibers () =
  let eng = Engine.create () in
  let site = make_site eng in
  let progressed = ref false in
  Site.spawn site (fun () ->
      Fiber.sleep 100.0;
      progressed := true);
  Engine.schedule eng ~delay:10.0 (fun () -> Site.crash site);
  Engine.run eng;
  Alcotest.(check bool) "fiber died with site" false !progressed;
  Alcotest.(check bool) "site down" false (Site.alive site)

let test_site_restart_incarnation () =
  let eng = Engine.create () in
  let site = make_site eng in
  let hook_runs = ref 0 in
  Site.on_restart site (fun () -> incr hook_runs);
  Site.crash site;
  Site.restart site;
  Alcotest.(check int) "incarnation bumped" 1 (Site.incarnation site);
  Alcotest.(check int) "hook ran" 1 !hook_runs;
  Alcotest.(check bool) "alive again" true (Site.alive site)

let test_site_restart_requires_crash () =
  let eng = Engine.create () in
  let site = make_site eng in
  Alcotest.check_raises "restart of live site"
    (Invalid_argument "Site.restart: site is alive") (fun () -> Site.restart site)

let test_site_new_group_after_restart () =
  let eng = Engine.create () in
  let site = make_site eng in
  Site.crash site;
  Site.restart site;
  let ran = ref false in
  Site.spawn site (fun () -> ran := true);
  Engine.run eng;
  Alcotest.(check bool) "new incarnation fibers run" true !ran

let test_cpu_multiprocessor_parallelism () =
  let eng = Engine.create () in
  let smp = { Cost_model.rt with Cost_model.cpus = 4 } in
  let site = make_site ~model:smp eng in
  (* 4 CPUs: 4 concurrent 10ms slices finish together at t=10 *)
  let finish = ref 0.0 in
  for _ = 1 to 4 do
    Site.spawn site (fun () ->
        Site.cpu_use site 10.0;
        finish := Float.max !finish (Fiber.now ()))
  done;
  Engine.run eng;
  check_float "4 slices in parallel" 10.0 !finish

let test_cpu_uniprocessor_serializes () =
  let eng = Engine.create () in
  let site = make_site eng in
  let finish = ref 0.0 in
  for _ = 1 to 3 do
    Site.spawn site (fun () ->
        Site.cpu_use site 10.0;
        finish := Float.max !finish (Fiber.now ()))
  done;
  Engine.run eng;
  check_float "3 slices serialized" 30.0 !finish

(* ------------------------------------------------------------------ *)
(* RPC *)

let two_sites () =
  let eng = Engine.create () in
  let a = make_site ~id:0 eng in
  let b = make_site ~id:1 eng in
  (eng, a, b)

let test_rpc_local_cost () =
  let eng = Engine.create () in
  let site = make_site eng in
  let elapsed =
    Fiber.run eng (fun () ->
        let t0 = Fiber.now () in
        let v = Rpc.call_local site (fun () -> 42) in
        Alcotest.(check int) "result" 42 v;
        Fiber.now () -. t0)
  in
  check_float "3ms IPC + 0.5ms server CPU" 3.5 elapsed

let test_rpc_remote_cost_near_model () =
  let eng, a, b = two_sites () in
  let elapsed =
    Fiber.run eng (fun () ->
        let t0 = Fiber.now () in
        let v = Rpc.call_remote ~client:a ~server:b (fun () -> 7) in
        Alcotest.(check int) "result" 7 v;
        Fiber.now () -. t0)
  in
  (* 28.5ms plus exponential jitter *)
  Alcotest.(check bool)
    (Printf.sprintf "%.2f in [28.5, 45]" elapsed)
    true
    (elapsed >= 28.5 && elapsed < 45.0)

let test_rpc_accounting_sums () =
  let eng, a, b = two_sites () in
  Fiber.run eng (fun () ->
      let t0 = Fiber.now () in
      let legs = ref [] in
      Rpc.call_remote
        ~legs:(fun label ms -> legs := (label, ms) :: !legs)
        ~client:a ~server:b
        (fun () -> ());
      let legs = List.rev !legs in
      let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 legs in
      Alcotest.(check (list string))
        "the five legs of the cost model, in path order"
        (List.map fst (Cost_model.rpc_legs Cost_model.rt))
        (List.map fst legs);
      check_float "legs sum to elapsed" (Fiber.now () -. t0) total)

let test_rpc_to_dead_site_fails () =
  let eng, a, b = two_sites () in
  Site.crash b;
  let failed =
    Fiber.run eng (fun () ->
        match Rpc.call_remote ~client:a ~server:b (fun () -> ()) with
        | () -> false
        | exception Rpc.Rpc_failure { callee; _ } -> callee = 1)
  in
  Alcotest.(check bool) "Rpc_failure raised" true failed

let test_rpc_server_crash_mid_call () =
  let eng, a, b = two_sites () in
  (* crash while the request is in flight *)
  Engine.schedule eng ~delay:8.0 (fun () -> Site.crash b);
  let failed =
    Fiber.run eng (fun () ->
        match Rpc.call_remote ~client:a ~server:b (fun () -> ()) with
        | () -> false
        | exception Rpc.Rpc_failure _ -> true)
  in
  Alcotest.(check bool) "fails when server dies mid-call" true failed

(* ------------------------------------------------------------------ *)
(* Queue-sharded dispatch *)

let test_dispatch_fifo_order () =
  let eng = Engine.create () in
  let site = make_site eng in
  let d = Dispatch.create ~shards:1 site in
  let order = ref [] in
  for i = 1 to 5 do
    Dispatch.submit d ~shard:0 (fun () -> order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO per shard" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_dispatch_bounded_executors () =
  let eng = Engine.create () in
  let site = make_site eng in
  let d = Dispatch.create ~shards:1 ~executors_per_shard:2 site in
  let active = ref 0 and peak = ref 0 and finish = ref 0.0 in
  for _ = 1 to 6 do
    Dispatch.submit d ~shard:0 (fun () ->
        incr active;
        if !active > !peak then peak := !active;
        Fiber.sleep 10.0;
        decr active;
        finish := Float.max !finish (Fiber.now ()))
  done;
  Engine.run eng;
  Alcotest.(check int) "at most 2 concurrent" 2 !peak;
  (* 6 sleeps of 10ms through 2 executors: three serial waves *)
  check_float "fixed population drains in waves" 30.0 !finish;
  Alcotest.(check int) "all submitted" 6 (Dispatch.submitted d);
  Alcotest.(check int) "all completed" 6 (Dispatch.completed d);
  Alcotest.(check int) "nothing shed" 0 (Dispatch.shed d);
  Alcotest.(check int) "queues drained" 0 (Dispatch.depth d);
  Alcotest.(check bool) "high-water mark saw the queue" true
    (Dispatch.max_depth d >= 4)

let test_dispatch_shard_routing () =
  let eng = Engine.create () in
  let site = make_site eng in
  let d = Dispatch.create ~shards:4 site in
  Alcotest.(check int) "shard count" 4 (Dispatch.shards d);
  let hit = Array.make 4 0 in
  for key = 0 to 255 do
    let s = Dispatch.shard_of_key d key in
    Alcotest.(check bool) "shard in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "routing deterministic" s (Dispatch.shard_of_key d key);
    hit.(s) <- hit.(s) + 1
  done;
  (* Fibonacci hashing spreads consecutive keys: no shard starves *)
  Array.iteri
    (fun i n ->
      Alcotest.(check bool) (Printf.sprintf "shard %d used" i) true (n > 0))
    hit

let test_dispatch_charges_no_cpu () =
  (* an executor charges no CPU of its own (Table 2's costs already
     include the kernel's context switches). Jobs are no-ops, so the
     site's CPU busy time is exactly what the executors charged. *)
  let eng = Engine.create () in
  let site = make_site eng in
  let d = Dispatch.create ~shards:1 site in
  let jobs = 4 in
  let order = ref [] in
  for i = 1 to jobs do
    Dispatch.submit d ~shard:0 (fun () -> order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int))
    "FIFO preserved"
    (List.init jobs (fun i -> i + 1))
    (List.rev !order);
  Alcotest.(check int) "all completed" jobs (Dispatch.completed d);
  check_float "no CPU charged" 0.0 (Sync.Resource.busy_time (Site.cpu site))

(* A raising job is never swallowed: it kills its executor, and the
   exception stops the engine as the executor's [Fiber.Died]. *)
let test_dispatch_job_exn_escapes () =
  let eng = Engine.create () in
  let site = make_site eng in
  let d = Dispatch.create ~shards:1 site in
  let ran = ref false in
  Dispatch.submit d ~shard:0 (fun () -> failwith "job crash");
  Dispatch.submit d ~shard:0 (fun () -> ran := true);
  (match Engine.run eng with
  | () -> Alcotest.fail "job exception swallowed"
  | exception Fiber.Died (name, Failure msg) ->
      Alcotest.(check string) "executor named" "dispatch-0.0" name;
      Alcotest.(check string) "exn carried" "job crash" msg);
  Alcotest.(check bool) "the engine stopped at the raise" false !ran;
  Alcotest.(check int) "nothing completed" 0 (Dispatch.completed d)

let test_dispatch_respawns_after_restart () =
  let eng = Engine.create () in
  let site = make_site eng in
  let d = Dispatch.create ~shards:1 site in
  let done_a = ref false and done_b = ref false and done_c = ref false in
  Dispatch.submit d ~shard:0 (fun () ->
      Fiber.sleep 50.0;
      done_a := true);
  Dispatch.submit d ~shard:0 (fun () -> done_b := true);
  (* crash mid-job A: the executor dies with the incarnation, and so
     does the queue holding B; restart re-staffs the shard, and the new
     executor serves C, submitted after the restart *)
  Engine.schedule eng ~delay:10.0 (fun () -> Site.crash site);
  Engine.schedule eng ~delay:20.0 (fun () -> Site.restart site);
  Engine.schedule eng ~delay:30.0 (fun () ->
      Dispatch.submit d ~shard:0 (fun () -> done_c := true));
  Engine.run eng;
  Alcotest.(check bool) "in-flight job died with the site" false !done_a;
  Alcotest.(check bool) "queued job died with the site" false !done_b;
  Alcotest.(check int) "queue emptied" 0 (Dispatch.depth d);
  Alcotest.(check bool) "job submitted after restart runs" true !done_c

(* ------------------------------------------------------------------ *)
(* Allocation budget *)

(* Minor-heap words per [Site.cpu_use], averaged over 10k uncontended
   uses: one fiber sleep and nothing more, 12.0 today (the resource
   reads no clock). The budget sits about 10% above (see the budgets
   in test_sim); it was 32 before a fiber wait became one engine
   block. *)
let test_cpu_use_alloc_budget () =
  let uses = 10_000 in
  let run () =
    let eng = Engine.create () in
    let site = make_site eng in
    Site.spawn site (fun () ->
        for _ = 1 to uses do
          Site.cpu_use site 0.5
        done);
    Engine.run eng
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per_use = (Gc.minor_words () -. before) /. float_of_int uses in
  if per_use > 13.2 then
    Alcotest.failf "Site.cpu_use: %.1f words per use, budget 13.2" per_use

(* Minor-heap words to arm a watchdog with [Site.after] and disarm it,
   as a family that resolves before its timeout does, averaged over
   10k pairs: 9 today, the timer event (3) and the incarnation guard's
   closure (6). The expiry time is boxed neither on its way into the
   queue nor when the tombstone drains, since the engine's heap calls
   inline (13 words, budget 14.3, while they boxed it). The expiry
   callback is built once, as the watchdogs build theirs, and a first
   pass sizes the queue. A [Fiber.spawn] plus one [sleep] costs 52
   (DESIGN.md §5e). The budget sits about 10% above. *)
let test_watchdog_alloc_budget () =
  let pairs = 10_000 in
  let eng = Engine.create () in
  let site = make_site eng in
  let expire () = () in
  let run () =
    for _ = 1 to pairs do
      Engine.cancel eng (Site.after site ~delay:1500.0 expire)
    done;
    Engine.run eng
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per_pair = (Gc.minor_words () -. before) /. float_of_int pairs in
  if per_pair > 9.9 then
    Alcotest.failf "Site.after + cancel: %.1f words per pair, budget 9.9" per_pair

let () =
  Alcotest.run "camelot_mach"
    [
      ( "cost_model",
        [
          Alcotest.test_case "RPC legs sum (§4.1)" `Quick test_rpc_legs_sum;
          Alcotest.test_case "RT constants (Tables 1-2)" `Quick test_rt_constants;
          Alcotest.test_case "VAX profile" `Quick test_vax_profile;
        ] );
      ( "site",
        [
          Alcotest.test_case "crash kills fibers" `Quick test_site_crash_kills_fibers;
          Alcotest.test_case "restart bumps incarnation" `Quick test_site_restart_incarnation;
          Alcotest.test_case "restart requires crash" `Quick test_site_restart_requires_crash;
          Alcotest.test_case "new group after restart" `Quick test_site_new_group_after_restart;
          Alcotest.test_case "SMP parallel CPU" `Quick test_cpu_multiprocessor_parallelism;
          Alcotest.test_case "uniprocessor serializes" `Quick test_cpu_uniprocessor_serializes;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "local call cost" `Quick test_rpc_local_cost;
          Alcotest.test_case "remote call near 28.5ms" `Quick test_rpc_remote_cost_near_model;
          Alcotest.test_case "per-leg accounting" `Quick test_rpc_accounting_sums;
          Alcotest.test_case "dead callee fails" `Quick test_rpc_to_dead_site_fails;
          Alcotest.test_case "mid-call crash fails" `Quick test_rpc_server_crash_mid_call;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "FIFO order per shard" `Quick test_dispatch_fifo_order;
          Alcotest.test_case "bounded executor population" `Quick
            test_dispatch_bounded_executors;
          Alcotest.test_case "shard routing" `Quick test_dispatch_shard_routing;
          Alcotest.test_case "executors charge no CPU" `Quick
            test_dispatch_charges_no_cpu;
          Alcotest.test_case "job exception escapes" `Quick
            test_dispatch_job_exn_escapes;
          Alcotest.test_case "restart re-staffs executors" `Quick
            test_dispatch_respawns_after_restart;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "Site.cpu_use budget" `Quick test_cpu_use_alloc_budget;
          Alcotest.test_case "watchdog arm and disarm budget" `Quick
            test_watchdog_alloc_budget;
        ] );
    ]
