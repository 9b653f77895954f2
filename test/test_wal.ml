(* Tests for the write-ahead log: spooling, forcing, group commit
   batching, the background flusher, durability waits, and crash
   semantics. *)

open Camelot_sim
open Camelot_mach
open Camelot_wal

let make_log ?policy () =
  let eng = Engine.create () in
  let site = Site.create eng ~id:0 ~model:Cost_model.rt ~rng:(Rng.create ~seed:3) in
  let log = Log.create ?policy site in
  (eng, site, log)

let group_commit = Log.Group_commit { window_ms = 0.0 }

let check_float = Alcotest.(check (float 1e-6))

let test_append_is_free () =
  let _, _, log = make_log () in
  let l0 = Log.append log "a" in
  let l1 = Log.append log "b" in
  Alcotest.(check (pair int int)) "lsns" (0, 1) (l0, l1);
  Alcotest.(check int) "nothing durable" (-1) (Log.durable_lsn log);
  Alcotest.(check int) "tail advanced" 1 (Log.tail_lsn log)

let test_force_takes_force_time () =
  let eng, _, log = make_log () in
  let elapsed =
    Fiber.run eng (fun () ->
        let t0 = Fiber.now () in
        ignore (Log.append_force log "a" : int);
        Fiber.now () -. t0)
  in
  check_float "one 15ms disk write" 15.0 elapsed;
  Alcotest.(check int) "durable" 0 (Log.durable_lsn log)

let test_force_covers_spooled () =
  let eng, _, log = make_log () in
  Fiber.run eng (fun () ->
      ignore (Log.append log "a" : int);
      ignore (Log.append log "b" : int);
      Log.force log);
  Alcotest.(check int) "both durable in one write" 1 (Log.durable_lsn log);
  Alcotest.(check int) "single disk write" 1 (Log.disk_writes log)

let test_force_noop_when_durable () =
  let eng, _, log = make_log () in
  Fiber.run eng (fun () ->
      ignore (Log.append_force log "a" : int);
      let t0 = Fiber.now () in
      Log.force log;
      Alcotest.(check (float 1e-6)) "no write needed" 0.0 (Fiber.now () -. t0))

let test_unbatched_forces_serialize () =
  let eng, _, log = make_log ~policy:Log.Unbatched () in
  let finish = ref [] in
  for i = 1 to 3 do
    Fiber.spawn eng (fun () ->
        ignore (Log.append log (Printf.sprintf "r%d" i) : int);
        Log.force log;
        finish := Fiber.now () :: !finish)
  done;
  Engine.run eng;
  (* every force performs its own 15ms write: 15, 30, 45 *)
  Alcotest.(check (list (float 1e-6)))
    "three writes" [ 15.0; 30.0; 45.0 ]
    (List.sort compare !finish);
  Alcotest.(check int) "three disk writes" 3 (Log.disk_writes log)

let test_group_commit_batches () =
  let eng, _, log = make_log ~policy:group_commit () in
  let finish = ref [] in
  for i = 1 to 3 do
    Fiber.spawn eng (fun () ->
        ignore (Log.append log (Printf.sprintf "r%d" i) : int);
        Log.force log;
        finish := Fiber.now () :: !finish)
  done;
  Engine.run eng;
  (* one leader write covers all three *)
  Alcotest.(check (list (float 1e-6)))
    "one write for all" [ 15.0; 15.0; 15.0 ]
    (List.sort compare !finish);
  Alcotest.(check int) "single disk write" 1 (Log.disk_writes log);
  Alcotest.(check int) "three forces" 3 (Log.forces log)

let test_group_commit_late_arrival_waits () =
  let eng, _, log = make_log ~policy:group_commit () in
  let late_done = ref 0.0 in
  Fiber.spawn eng (fun () ->
      ignore (Log.append log "early" : int);
      Log.force log);
  Fiber.spawn eng (fun () ->
      Fiber.sleep 5.0;
      (* arrives while the leader's write is in flight: must wait for a
         second write (its record was spooled after write start) *)
      ignore (Log.append log "late" : int);
      Log.force log;
      late_done := Fiber.now ());
  Engine.run eng;
  check_float "second write at 30" 30.0 !late_done;
  Alcotest.(check int) "two disk writes" 2 (Log.disk_writes log)

let test_batch_window_accumulates () =
  let eng, _, log = make_log ~policy:(Log.Group_commit { window_ms = 10.0 }) () in
  let done_at = ref [] in
  Fiber.spawn eng (fun () ->
      ignore (Log.append log "a" : int);
      Log.force log;
      done_at := Fiber.now () :: !done_at);
  Fiber.spawn eng (fun () ->
      Fiber.sleep 5.0;
      (* lands inside the leader's 10ms window: same write *)
      ignore (Log.append log "b" : int);
      Log.force log;
      done_at := Fiber.now () :: !done_at);
  Engine.run eng;
  Alcotest.(check (list (float 1e-6)))
    "window batched both" [ 25.0; 25.0 ]
    (List.sort compare !done_at);
  Alcotest.(check int) "one disk write" 1 (Log.disk_writes log)

let test_wait_durable_via_flusher () =
  let eng, _, log = make_log () in
  Log.start log ~flush_every:20.0;
  let woke_at =
    Fiber.run eng (fun () ->
        let lsn = Log.append log "lazy" in
        Log.wait_durable log lsn;
        Fiber.now ())
  in
  (* flusher fires at 20, write completes at 35 *)
  check_float "woken after flusher write" 35.0 woke_at

let test_crash_loses_tail () =
  let eng, _, log = make_log () in
  Fiber.run eng (fun () ->
      ignore (Log.append_force log "durable" : int);
      ignore (Log.append log "volatile" : int));
  Log.crash log;
  Alcotest.(check int) "tail truncated" 0 (Log.tail_lsn log);
  Alcotest.(check (list (pair int string)))
    "only durable prefix survives" [ (0, "durable") ]
    (Log.durable_records log)

let test_crash_releases_dropped_records () =
  (* regression: crash used to truncate [size] but leave the dropped
     tail records pinned by the backing array until overwritten *)
  let eng, _, log = make_log () in
  Fiber.run eng (fun () ->
      ignore (Log.append_force log "durable" : int);
      for i = 1 to 100 do
        ignore (Log.append log (String.make 4096 (Char.chr (65 + (i mod 26)))) : int)
      done);
  let before = Obj.reachable_words (Obj.repr log) in
  Log.crash log;
  let after = Obj.reachable_words (Obj.repr log) in
  Alcotest.(check int) "tail truncated" 0 (Log.tail_lsn log);
  (* 100 x 4 KiB of volatile records must be collectable: the live heap
     behind the log drops to a small fraction of the pre-crash size *)
  Alcotest.(check bool)
    (Printf.sprintf "dropped records unpinned (%d -> %d words)" before after)
    true
    (after * 10 < before)

let test_crash_with_nothing_durable_empties () =
  let _, _, log = make_log () in
  ignore (Log.append log "volatile" : int);
  Log.crash log;
  Alcotest.(check int) "empty" 0 (Log.records_spooled log);
  Alcotest.(check int) "nothing durable" (-1) (Log.durable_lsn log)

(* A platter write completing in the instant its site crashes: the
   writer's wake-up is already queued when the crash kills the group,
   so the fiber runs one more step after [Log.crash] has cut the tail.
   That step must not make the lost records durable. *)
let test_write_landing_at_crash_dropped () =
  let eng, site, log = make_log () in
  Site.spawn site (fun () ->
      for i = 0 to 2 do
        ignore (Log.append log (Printf.sprintf "r%d" i) : int)
      done;
      Log.force log);
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      (* the force's 15 ms write completes at t = 15 *)
      Engine.schedule eng ~delay:14.0 (fun () ->
          Site.crash site;
          Log.crash log));
  Engine.run eng;
  Alcotest.(check int) "nothing durable" (-1) (Log.durable_lsn log);
  Alcotest.(check int) "tail cut" (-1) (Log.tail_lsn log);
  Alcotest.(check int) "dropped write not counted" 0 (Log.disk_writes log);
  Alcotest.(check (list (pair int string))) "no records" [] (Log.all_records log)

let test_records_accessors () =
  let eng, _, log = make_log () in
  Fiber.run eng (fun () ->
      ignore (Log.append_force log "a" : int);
      ignore (Log.append log "b" : int));
  Alcotest.(check (list (pair int string))) "durable" [ (0, "a") ] (Log.durable_records log);
  Alcotest.(check (list (pair int string)))
    "all includes tail"
    [ (0, "a"); (1, "b") ]
    (Log.all_records log)

let test_follower_target_covered_by_inflight_write () =
  (* lost-wakeup regression: a follower whose force target is exactly
     the LSN the in-flight leader write will cover must be released by
     that write's broadcast — one disk write, done at 15 — rather than
     waiting for a second write that will never be issued *)
  let eng, _, log = make_log ~policy:group_commit () in
  let follower_done = ref nan in
  Fiber.spawn eng (fun () ->
      ignore (Log.append log "leader" : int);
      Log.force log);
  Fiber.spawn eng (fun () ->
      (* runs after the leader has claimed the write but before the
         I/O is issued: the record spools into the leader's batch *)
      ignore (Log.append log "follower" : int);
      Log.force log;
      follower_done := Fiber.now ());
  Engine.run eng;
  check_float "released by the covering write" 15.0 !follower_done;
  Alcotest.(check int) "one disk write" 1 (Log.disk_writes log);
  Alcotest.(check int) "both records durable" 1 (Log.durable_lsn log)

let test_staggered_forces_all_complete () =
  (* lost-wakeup regression: forces arriving before, during, and after
     each write must all terminate; a dropped broadcast would leave a
     fiber suspended forever and the final count short *)
  let eng, _, log = make_log ~policy:group_commit () in
  let finished = ref 0 in
  List.iter
    (fun delay ->
      Fiber.spawn eng (fun () ->
          Fiber.sleep delay;
          ignore (Log.append log (Printf.sprintf "r@%.0f" delay) : int);
          Log.force log;
          incr finished))
    [ 0.0; 0.0; 5.0; 14.0; 16.0; 29.0 ];
  Engine.run eng;
  Alcotest.(check int) "every force returned" 6 !finished;
  Alcotest.(check int) "everything durable" 5 (Log.durable_lsn log);
  Alcotest.(check int) "no event left pending" 0 (Engine.pending eng)

let test_wait_durable_already_durable () =
  let eng, _, log = make_log () in
  let waited =
    Fiber.run eng (fun () ->
        let lsn = Log.append_force log "a" in
        let t0 = Fiber.now () in
        Log.wait_durable log lsn;
        Fiber.now () -. t0)
  in
  check_float "returns without waiting" 0.0 waited

let test_throughput_cap_without_batching () =
  (* the §3.5 argument: a 15ms force caps an unbatched log at ~66
     writes/s; group commit with many concurrent committers beats it *)
  let eng, _, log = make_log ~policy:Log.Unbatched () in
  let committed = ref 0 in
  for _ = 1 to 10 do
    Fiber.spawn eng (fun () ->
        let rec loop () =
          if Fiber.now () < 1000.0 then begin
            ignore (Log.append log "commit" : int);
            Log.force log;
            incr committed;
            loop ()
          end
        in
        loop ())
  done;
  Engine.run ~until:1000.0 eng;
  let unbatched = !committed in
  let eng2 = Engine.create () in
  let site2 = Site.create eng2 ~id:0 ~model:Cost_model.rt ~rng:(Rng.create ~seed:4) in
  let log2 = Log.create ~policy:group_commit site2 in
  let committed2 = ref 0 in
  for _ = 1 to 10 do
    Fiber.spawn eng2 (fun () ->
        let rec loop () =
          if Fiber.now () < 1000.0 then begin
            ignore (Log.append log2 "commit" : int);
            Log.force log2;
            incr committed2;
            loop ()
          end
        in
        loop ())
  done;
  Engine.run ~until:1000.0 eng2;
  Alcotest.(check bool)
    (Printf.sprintf "unbatched ~66/s (%d)" unbatched)
    true
    (unbatched >= 60 && unbatched <= 70);
  Alcotest.(check bool)
    (Printf.sprintf "batched beats unbatched (%d > %d)" !committed2 unbatched)
    true
    (!committed2 > 5 * unbatched)

(* --- logger daemon ------------------------------------------------ *)

(* rt model: one batched serialization pass costs 0.3 ms plus 0.25 ms
   per record, and a platter write 15 ms — the constants behind the
   exact wake times asserted below. *)
let make_daemon_log ?(flush_every = 1000.0) () =
  let eng = Engine.create () in
  let site = Site.create eng ~id:0 ~model:Cost_model.rt ~rng:(Rng.create ~seed:3) in
  let log = Log.create ~policy:Log.Adaptive site in
  Log.start log ~flush_every;
  (eng, site, log)

let test_daemon_single_force () =
  let eng, _, log = make_daemon_log () in
  let woke = ref nan in
  Fiber.spawn eng (fun () ->
      ignore (Log.append_force log "a" : int);
      woke := Fiber.now ());
  Engine.run ~until:100.0 eng;
  check_float "serialization pass + one write" 15.55 !woke;
  Alcotest.(check int) "one disk write" 1 (Log.disk_writes log)

let test_daemon_lsn_ordered_wakeup () =
  (* A forces lsn 0; B appends lsn 1 mid-write and forces. The write
     covering lsn 0 must release exactly A — B's target is not durable
     yet and waking it would return from force before its record is on
     the platter *)
  let eng, _, log = make_daemon_log () in
  let a_done = ref nan and b_done = ref nan in
  Fiber.spawn eng (fun () ->
      ignore (Log.append_force log "a" : int);
      a_done := Fiber.now ());
  Fiber.spawn eng (fun () ->
      Fiber.sleep 5.0;
      ignore (Log.append_force log "b" : int);
      b_done := Fiber.now ());
  Engine.run ~until:200.0 eng;
  check_float "A released by the first write" 15.55 !a_done;
  check_float "B released only once lsn 1 is durable" 30.55 !b_done;
  Alcotest.(check int) "two disk writes" 2 (Log.disk_writes log)

let test_daemon_simultaneous_forces () =
  (* five forces in the same timestep: one serialization pass, one
     shared write, no lost wakeup *)
  let eng, _, log = make_daemon_log () in
  let finish = ref [] in
  for i = 1 to 5 do
    Fiber.spawn eng (fun () ->
        ignore (Log.append_force log (Printf.sprintf "r%d" i) : int);
        finish := Fiber.now () :: !finish)
  done;
  Engine.run ~until:100.0 eng;
  Alcotest.(check int) "every force returned" 5 (List.length !finish);
  List.iter (fun at -> check_float "one shared write" 16.55 at) !finish;
  Alcotest.(check int) "one disk write" 1 (Log.disk_writes log);
  Alcotest.(check int) "all five durable" 4 (Log.durable_lsn log)

let test_daemon_pipelines_next_batch () =
  (* while the write for lsn 0 is in flight, forces for lsns 1 and 2
     spool and serialize; the second write starts the instant the
     platter frees and covers both *)
  let eng, _, log = make_daemon_log () in
  let done_at = ref [] in
  let force_at delay record =
    Fiber.spawn eng (fun () ->
        Fiber.sleep delay;
        ignore (Log.append_force log record : int);
        done_at := (record, Fiber.now ()) :: !done_at)
  in
  force_at 0.0 "a";
  force_at 3.0 "b";
  force_at 6.0 "c";
  Engine.run ~until:200.0 eng;
  Alcotest.(check (list (pair string (float 1e-6))))
    "b and c share the pipelined second write"
    [ ("a", 15.55); ("b", 30.55); ("c", 30.55) ]
    (List.sort compare !done_at);
  Alcotest.(check int) "two disk writes" 2 (Log.disk_writes log)

let test_daemon_wait_durable_rides_flush () =
  (* an unforced record must not trigger a write of its own: the waiter
     parks without raising the force target and rides the periodic
     flush *)
  let eng, _, log = make_daemon_log ~flush_every:20.0 () in
  let woke = ref nan in
  Fiber.spawn eng (fun () ->
      let lsn = Log.append log "lazy" in
      Log.wait_durable log lsn;
      woke := Fiber.now ());
  Engine.run ~until:200.0 eng;
  check_float "carried by the periodic flush" 35.55 !woke;
  Alcotest.(check int) "no foreground force" 0 (Log.forces log)

let test_daemon_stops_after_crash () =
  let eng, site, log = make_daemon_log () in
  Fiber.spawn eng (fun () -> ignore (Log.append_force log "a" : int));
  Engine.schedule eng ~delay:20.0 (fun () ->
      Site.crash site;
      Log.crash log);
  Engine.run eng;
  (* both daemon fibers must have exited with the incarnation: an
     unbounded run terminates with nothing pending *)
  Alcotest.(check int) "no event left pending" 0 (Engine.pending eng);
  Alcotest.(check int) "single pre-crash write" 1 (Log.disk_writes log)

let test_flusher_stops_after_crash () =
  (* regression: the crash lands in the same timestep the flusher's
     timer fires, so the timer escapes the fiber-group kill and the
     stale flusher runs one more iteration — against a site that has
     already restarted into a new incarnation. It must recognize the
     stale incarnation and exit instead of flushing the new log *)
  let eng, site, log = make_log () in
  Log.start log ~flush_every:20.0;
  Engine.schedule eng ~delay:20.0 (fun () ->
      Site.crash site;
      Log.crash log;
      Site.restart site);
  Engine.schedule eng ~delay:25.0 (fun () ->
      ignore (Log.append log "post-restart" : int));
  Engine.run ~until:200.0 eng;
  Alcotest.(check int) "stale flusher never wrote" 0 (Log.disk_writes log);
  Alcotest.(check int) "record still volatile" (-1) (Log.durable_lsn log)

(* --- truncation --------------------------------------------------- *)

let test_truncate_keeps_lsns_stable () =
  let eng, _, log = make_log () in
  Fiber.run eng (fun () ->
      for i = 0 to 9 do
        ignore (Log.append log (Printf.sprintf "r%d" i) : int)
      done;
      Log.force log);
  Log.truncate log ~keep_from:5;
  Alcotest.(check int) "base advanced" 5 (Log.base_lsn log);
  Alcotest.(check int) "tail unchanged" 9 (Log.tail_lsn log);
  Alcotest.(check int) "one truncation" 1 (Log.truncations log);
  Alcotest.(check string) "surviving lsn still addressable" "r7" (Log.get log 7);
  Alcotest.(check (list (pair int string)))
    "durable prefix starts at the new base"
    [ (5, "r5"); (6, "r6"); (7, "r7"); (8, "r8"); (9, "r9") ]
    (Log.durable_records log);
  Alcotest.check_raises "below base is gone" (Invalid_argument "Log.get: bad lsn")
    (fun () -> ignore (Log.get log 4 : string));
  Alcotest.(check int) "numbering continues" 10 (Log.append log "r10")

let test_truncate_past_durable_rejected () =
  let eng, _, log = make_log () in
  Fiber.run eng (fun () ->
      ignore (Log.append_force log "a" : int);
      ignore (Log.append log "volatile" : int));
  Alcotest.check_raises "volatile tail cannot be dropped"
    (Invalid_argument "Log.truncate: cannot truncate past the durable prefix")
    (fun () -> Log.truncate log ~keep_from:2)

let test_truncate_unpins_dropped_records () =
  let eng, _, log = make_log () in
  Fiber.run eng (fun () ->
      for i = 0 to 100 do
        ignore (Log.append log (String.make 4096 (Char.chr (65 + (i mod 26)))) : int)
      done;
      Log.force log);
  let before = Obj.reachable_words (Obj.repr log) in
  Log.truncate log ~keep_from:100;
  let after = Obj.reachable_words (Obj.repr log) in
  Alcotest.(check bool)
    (Printf.sprintf "dropped records unpinned (%d -> %d words)" before after)
    true
    (after * 10 < before)

let test_iter_durable_from () =
  let eng, _, log = make_log () in
  Fiber.run eng (fun () ->
      for i = 0 to 9 do
        ignore (Log.append log i : int)
      done;
      Log.force log);
  let seen = ref [] in
  Log.iter_durable_from log ~from:7 (fun lsn r -> seen := (lsn, r) :: !seen);
  Alcotest.(check (list (pair int int)))
    "starts at from" [ (7, 7); (8, 8); (9, 9) ] (List.rev !seen);
  Log.truncate log ~keep_from:4;
  let seen = ref [] in
  Log.iter_durable_from log ~from:0 (fun lsn r -> seen := (lsn, r) :: !seen);
  Alcotest.(check (pair int int))
    "clamped to base after truncation" (4, 4)
    (List.hd (List.rev !seen))

let () =
  Alcotest.run "camelot_wal"
    [
      ( "log",
        [
          Alcotest.test_case "append is free" `Quick test_append_is_free;
          Alcotest.test_case "force takes 15ms" `Quick test_force_takes_force_time;
          Alcotest.test_case "force covers spooled" `Quick test_force_covers_spooled;
          Alcotest.test_case "force no-op when durable" `Quick test_force_noop_when_durable;
          Alcotest.test_case "unbatched forces serialize" `Quick test_unbatched_forces_serialize;
          Alcotest.test_case "group commit batches" `Quick test_group_commit_batches;
          Alcotest.test_case "late arrival waits for next write" `Quick
            test_group_commit_late_arrival_waits;
          Alcotest.test_case "batch window accumulates" `Quick test_batch_window_accumulates;
          Alcotest.test_case "wait_durable via flusher" `Quick test_wait_durable_via_flusher;
          Alcotest.test_case "crash loses volatile tail" `Quick test_crash_loses_tail;
          Alcotest.test_case "crash unpins dropped records" `Quick
            test_crash_releases_dropped_records;
          Alcotest.test_case "crash with nothing durable empties" `Quick
            test_crash_with_nothing_durable_empties;
          Alcotest.test_case "write landing at crash dropped" `Quick
            test_write_landing_at_crash_dropped;
          Alcotest.test_case "record accessors" `Quick test_records_accessors;
          Alcotest.test_case "follower covered by in-flight write" `Quick
            test_follower_target_covered_by_inflight_write;
          Alcotest.test_case "staggered forces all complete" `Quick
            test_staggered_forces_all_complete;
          Alcotest.test_case "wait_durable already durable" `Quick
            test_wait_durable_already_durable;
          Alcotest.test_case "group commit throughput (§3.5)" `Quick
            test_throughput_cap_without_batching;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "single force" `Quick test_daemon_single_force;
          Alcotest.test_case "LSN-ordered wakeup" `Quick
            test_daemon_lsn_ordered_wakeup;
          Alcotest.test_case "simultaneous forces share one write" `Quick
            test_daemon_simultaneous_forces;
          Alcotest.test_case "next batch pipelines behind in-flight write"
            `Quick test_daemon_pipelines_next_batch;
          Alcotest.test_case "wait_durable rides the periodic flush" `Quick
            test_daemon_wait_durable_rides_flush;
          Alcotest.test_case "daemon stops after crash" `Quick
            test_daemon_stops_after_crash;
          Alcotest.test_case "stale flusher stops after crash+restart" `Quick
            test_flusher_stops_after_crash;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "LSNs stable across truncate" `Quick
            test_truncate_keeps_lsns_stable;
          Alcotest.test_case "cannot truncate volatile tail" `Quick
            test_truncate_past_durable_rejected;
          Alcotest.test_case "truncate unpins dropped records" `Quick
            test_truncate_unpins_dropped_records;
          Alcotest.test_case "iter_durable_from clamps to base" `Quick
            test_iter_durable_from;
        ] );
    ]
