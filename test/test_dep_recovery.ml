(* Dependency-partitioned recovery: replaying the log's chains on
   parallel fibers must be observationally identical to the sequential
   pass.

   The property runs the same seeded random workload on twin clusters
   that differ only in log mode: one plain (sequential recovery), one
   dependency-tracking replayed at k partitions. Dependency tracking
   adds no virtual time and draws no randomness, so the twins stay in
   lockstep until every site is crashed *mid-workload* — leaving
   winners, losers and in-doubt families in the logs. After restart,
   recovered values, re-acquired locks and the in-doubt sets must
   agree for every k, and so must the final values once the in-doubt
   families resolve. *)

open Camelot_core

let keys = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
let crash_ms = 1_200.0
let horizon_ms = 2_000.0
let n_sites = 2
let workers_per_site = 3

let config () =
  let c = State.default_config ~threads:workers_per_site () in
  c.State.vote_timeout_ms <- 100.0;
  c.State.max_vote_retries <- 2;
  c.State.outcome_retry_ms <- 150.0;
  c.State.subordinate_timeout_ms <- 400.0;
  c.State.takeover_retry_ms <- 200.0;
  c

let spawn_workload c ~seed =
  for site = 0 to n_sites - 1 do
    let node = Camelot.Cluster.node c site in
    let tm = Camelot.Cluster.tranman c site in
    for w = 0 to workers_per_site - 1 do
      let rng = Camelot_sim.Rng.create ~seed:(seed + (site * 101) + (w * 13)) in
      Camelot_mach.Site.spawn node.Camelot.Cluster.site (fun () ->
          let rec loop () =
            if Camelot_sim.Fiber.now () < horizon_ms then begin
              Camelot_sim.Fiber.sleep (Camelot_sim.Rng.exponential rng ~mean:20.0);
              if Camelot_sim.Fiber.now () < horizon_ms then begin
                let tid = Tranman.begin_transaction tm in
                let key =
                  List.nth keys (Camelot_sim.Rng.int_below rng (List.length keys))
                in
                if Camelot_sim.Rng.uniform rng < 0.4 then begin
                  (* distributed update through presumed-abort 2PC;
                     ascending site order, so no cross-site deadlock *)
                  for s = 0 to n_sites - 1 do
                    ignore
                      (Camelot.Cluster.op c ~origin:site tid ~site:s
                         (Camelot_server.Data_server.Add (key, 1))
                        : int)
                  done;
                  ignore
                    (Tranman.commit tm ~protocol:Protocol.Two_phase tid
                      : Protocol.outcome)
                end
                else begin
                  ignore
                    (Camelot.Cluster.op c ~origin:site tid ~site
                       (Camelot_server.Data_server.Add (key, 1))
                      : int);
                  ignore (Tranman.commit tm tid : Protocol.outcome)
                end;
                loop ()
              end
            end
          in
          try loop () with Camelot_server.Data_server.Lock_timeout _ -> ())
    done
  done

let spawn_checkpointer c =
  (* periodic truncating checkpoints, so the dep chains must survive
     through the [ck_chains] snapshot, not just raw update records *)
  for site = 0 to n_sites - 1 do
    let node = Camelot.Cluster.node c site in
    Camelot_mach.Site.spawn node.Camelot.Cluster.site (fun () ->
        let rec loop () =
          Camelot_sim.Fiber.sleep 300.0;
          if Camelot_sim.Fiber.now () < crash_ms then begin
            Camelot.Cluster.checkpoint ~truncate:true c site;
            loop ()
          end
        in
        loop ())
  done

(* Everything recovery rebuilds, in comparable form: values, the locks
   re-taken for in-doubt updates, and the in-doubt families. *)
type observation = {
  o_values : (int * string * int) list;
  o_locks : string list;  (** rendered "site/key/owner/mode" held locks *)
  o_in_doubt : (int * string) list;
}

let values c =
  List.concat_map
    (fun site ->
      List.map
        (fun key ->
          ( site,
            key,
            Camelot_server.Data_server.peek (Camelot.Cluster.server c site) key ))
        keys)
    (List.init n_sites Fun.id)

let observe c in_doubt =
  let o_locks =
    List.sort compare
      (List.concat_map
         (fun site ->
           List.map
             (fun (key, owner, mode) ->
               Printf.sprintf "%d/%s/%s/%s" site key (Tid.to_string owner)
                 (match mode with
                 | Camelot_lock.Lock_table.Exclusive -> "X"
                 | Camelot_lock.Lock_table.Shared -> "S"))
             (Camelot_lock.Lock_table.all_held
                (Camelot_server.Data_server.locks (Camelot.Cluster.server c site))))
         (List.init n_sites Fun.id))
  in
  let o_in_doubt =
    List.sort compare
      (List.concat_map
         (fun (site, tids) -> List.map (fun t -> (site, Tid.to_string t)) tids)
         in_doubt)
  in
  { o_values = values c; o_locks; o_in_doubt }

let run_instance ~seed ~dep ~partitions =
  let c =
    Camelot.Cluster.create ~seed ~config:(config ())
      ~logger:Camelot.Cluster.Adaptive ~dep_logging:dep
      ~recovery_partitions:partitions ~sites:n_sites ()
  in
  spawn_workload c ~seed;
  spawn_checkpointer c;
  (* crash *mid-workload*: families are active, prepared, committing *)
  Camelot.Cluster.run ~until:crash_ms c;
  let in_doubt = ref [] in
  Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
      for i = 0 to n_sites - 1 do
        Camelot.Cluster.crash_site c i
      done;
      for i = 0 to n_sites - 1 do
        in_doubt := (i, Camelot.Cluster.restart_site c i) :: !in_doubt
      done);
  let obs = observe c !in_doubt in
  (* let the inquiry/takeover machinery resolve the in-doubt families *)
  Camelot.Cluster.run ~until:(horizon_ms +. 8_000.0) c;
  (obs, values c)

let obs_testable =
  Alcotest.(
    triple
      (list (triple int string int))
      (list string)
      (list (pair int string)))

let as_triple o = (o.o_values, o.o_locks, o.o_in_doubt)

let test_partitioned_equals_sequential () =
  let rand = Testutil.qcheck_rand () in
  let seeds = [ 7; 42; 1 + Random.State.int rand 99_989 ] in
  List.iter
    (fun seed ->
      let ref_obs, ref_final = run_instance ~seed ~dep:false ~partitions:1 in
      (* the crash interrupted real work, or the property is vacuous *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: workload produced state" seed)
        true
        (List.exists (fun (_, _, v) -> v > 0) ref_obs.o_values);
      List.iter
        (fun partitions ->
          let obs, final = run_instance ~seed ~dep:true ~partitions in
          Alcotest.check obs_testable
            (Printf.sprintf
               "seed %d: dep recovery at %d partition(s) == sequential" seed
               partitions)
            (as_triple ref_obs) (as_triple obs);
          Alcotest.(check (list (triple int string int)))
            (Printf.sprintf
               "seed %d: resolved state at %d partition(s) == sequential" seed
               partitions)
            ref_final final)
        [ 1; 2; 4; 8 ])
    seeds

(* ------------------------------------------------------------------ *)
(* Log-level dependency API *)

let with_log ~dep f =
  let eng = Camelot_sim.Engine.create () in
  let site =
    Camelot_mach.Site.create eng ~id:0 ~model:Testutil.quiet_model
      ~rng:(Camelot_sim.Rng.create ~seed:3)
  in
  let log = Camelot_wal.Log.create ~dep_logging:dep site in
  Camelot_sim.Fiber.run eng (fun () -> f log)

let test_dep_next_threads_chains () =
  with_log ~dep:true (fun log ->
      Alcotest.(check bool) "mode on" true (Camelot_wal.Log.dep_logging log);
      (* first writer of a key has no predecessor *)
      Alcotest.(check int) "a: head" (-1) (Camelot_wal.Log.dep_next log ~key:"s/a");
      let l0 = Camelot_wal.Log.append log 10 in
      (* second writer points at the first's LSN *)
      Alcotest.(check int) "a: chained" l0 (Camelot_wal.Log.dep_next log ~key:"s/a");
      let l1 = Camelot_wal.Log.append log 11 in
      Alcotest.(check int) "b: head" (-1) (Camelot_wal.Log.dep_next log ~key:"s/b");
      let l2 = Camelot_wal.Log.append log 12 in
      Alcotest.(check (list (pair string int)))
        "chain table holds each key's last writer"
        [ ("s/a", l1); ("s/b", l2) ]
        (Camelot_wal.Log.dep_chains log))

let test_dep_seed_keeps_newest () =
  with_log ~dep:true (fun log ->
      Camelot_wal.Log.dep_seed log ~key:"s/a" 5;
      (* older than the recorded last writer: ignored *)
      Camelot_wal.Log.dep_seed log ~key:"s/a" 3;
      Camelot_wal.Log.dep_seed log ~key:"s/b" 7;
      (* newer: wins *)
      Camelot_wal.Log.dep_seed log ~key:"s/b" 9;
      Alcotest.(check (list (pair string int)))
        "newest LSN per key survives"
        [ ("s/a", 5); ("s/b", 9) ]
        (Camelot_wal.Log.dep_chains log))

let test_crash_clears_chain_table () =
  with_log ~dep:true (fun log ->
      ignore (Camelot_wal.Log.dep_next log ~key:"s/a" : int);
      ignore (Camelot_wal.Log.append log 1 : int);
      Camelot_wal.Log.crash log;
      (* volatile last-writer table died with the site; recovery
         reseeds it from ck_chains and the scanned tail *)
      Alcotest.(check (list (pair string int)))
        "table empty after crash" []
        (Camelot_wal.Log.dep_chains log);
      Alcotest.(check int)
        "post-crash writer is a chain head" (-1)
        (Camelot_wal.Log.dep_next log ~key:"s/a"))

let test_plain_log_has_no_chains () =
  with_log ~dep:false (fun log ->
      Alcotest.(check bool) "mode off" false (Camelot_wal.Log.dep_logging log);
      Alcotest.(check int)
        "dep_next is the sentinel" (-1)
        (Camelot_wal.Log.dep_next log ~key:"s/a");
      ignore (Camelot_wal.Log.append log 1 : int);
      Alcotest.(check int)
        "still the sentinel" (-1)
        (Camelot_wal.Log.dep_next log ~key:"s/a");
      Camelot_wal.Log.dep_seed log ~key:"s/a" 3;
      Alcotest.(check (list (pair string int)))
        "no chain table" []
        (Camelot_wal.Log.dep_chains log))

let () =
  Alcotest.run "camelot_dep_recovery"
    [
      ( "equivalence",
        [
          Alcotest.test_case "partitioned recovery == sequential" `Quick
            test_partitioned_equals_sequential;
        ] );
      ( "log-api",
        [
          Alcotest.test_case "dep_next threads per-key chains" `Quick
            test_dep_next_threads_chains;
          Alcotest.test_case "dep_seed keeps the newest LSN" `Quick
            test_dep_seed_keeps_newest;
          Alcotest.test_case "crash clears the chain table" `Quick
            test_crash_clears_chain_table;
          Alcotest.test_case "plain log has no chains" `Quick
            test_plain_log_has_no_chains;
        ] );
    ]
