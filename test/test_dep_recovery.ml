(* Partitioned recovery: replaying the log's per-key chains on parallel
   fibers, bucketed by (server, key) hash, must be observationally
   identical to one partition, the single totally-ordered pass every
   restart runs by default.

   The property runs the same seeded random workload on twin clusters
   that differ only in partition count: the default (one), and k. The
   count adds no virtual time before the crash and draws no
   randomness, so the twins stay in lockstep until every site is
   crashed *mid-workload* — leaving winners, losers and in-doubt
   families in the logs. After restart, recovered values, re-acquired
   locks and the in-doubt sets must agree for every k, and so must the
   final values once the in-doubt families resolve. *)

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
  (* periodic truncating checkpoints, so recovery must start from a
     checkpoint's snapshot and in-flight updates, not just raw update
     records *)
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

let run_instance ~seed ?partitions () =
  let c =
    Camelot.Cluster.create ~seed ~config:(config ())
      ~logger:Camelot.Cluster.Adaptive ?recovery_partitions:partitions
      ~sites:n_sites ()
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

let test_partitioned_equals_one_partition () =
  let rand = Testutil.qcheck_rand () in
  let seeds = [ 7; 42; 1 + Random.State.int rand 99_989 ] in
  List.iter
    (fun seed ->
      let ref_obs, ref_final = run_instance ~seed () in
      (* the crash interrupted real work, or the property is vacuous *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: workload produced state" seed)
        true
        (List.exists (fun (_, _, v) -> v > 0) ref_obs.o_values);
      List.iter
        (fun partitions ->
          let obs, final = run_instance ~seed ~partitions () in
          Alcotest.check obs_testable
            (Printf.sprintf
               "seed %d: recovery at %d partitions == one partition" seed
               partitions)
            (as_triple ref_obs) (as_triple obs);
          Alcotest.(check (list (triple int string int)))
            (Printf.sprintf
               "seed %d: resolved state at %d partitions == one partition" seed
               partitions)
            ref_final final)
        [ 2; 4; 8 ])
    seeds

let () =
  Alcotest.run "camelot_dep_recovery"
    [
      ( "equivalence",
        [
          Alcotest.test_case "partitioned recovery == one partition" `Quick
            test_partitioned_equals_one_partition;
        ] );
    ]
