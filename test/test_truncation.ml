(* Checkpoint truncation: recovery from a truncated log must rebuild
   the same state as recovery from the full log.

   The property runs the same seeded random workload on two clusters
   that differ in exactly one bit: both take periodic checkpoints
   mid-run (so the checkpoint images capture in-flight families), but
   only one truncates its logs at each checkpoint. Truncation itself
   consumes no virtual time, so the two simulations stay in lockstep;
   after quiescing, every site is crashed and restarted, and the
   recovered values must agree between the twins — and with the
   pre-crash committed state. The distributed transactions run under
   each commit protocol in turn, so non-blocking Replication and Paxos
   acceptance records cross checkpoints too. No fault-free run forces a
   Refusal, so one deterministic twin case aborts a non-blocking
   transaction through an abort quorum first. *)

open Camelot_core

let keys = [ "a"; "b"; "c"; "d"; "e" ]
let horizon_ms = 3_000.0
let checkpoint_every_ms = 400.0
let n_sites = 2
let workers_per_site = 3

let spawn_workload c ~seed ~protocol =
  for site = 0 to n_sites - 1 do
    let node = Camelot.Cluster.node c site in
    let tm = Camelot.Cluster.tranman c site in
    for w = 0 to workers_per_site - 1 do
      let rng = Camelot_sim.Rng.create ~seed:(seed + (site * 101) + (w * 13)) in
      Camelot_mach.Site.spawn node.Camelot.Cluster.site (fun () ->
          let rec loop () =
            if Camelot_sim.Fiber.now () < horizon_ms then begin
              Camelot_sim.Fiber.sleep (Camelot_sim.Rng.exponential rng ~mean:25.0);
              if Camelot_sim.Fiber.now () < horizon_ms then begin
                let tid = Tranman.begin_transaction tm in
                let key =
                  List.nth keys (Camelot_sim.Rng.int_below rng (List.length keys))
                in
                if Camelot_sim.Rng.uniform rng < 0.3 then begin
                  (* distributed update; ascending site order, so no
                     cross-site deadlock *)
                  for s = 0 to n_sites - 1 do
                    ignore
                      (Camelot.Cluster.op c ~origin:site tid ~site:s
                         (Camelot_server.Data_server.Add (key, 1))
                        : int)
                  done;
                  ignore (Tranman.commit tm ~protocol tid : Protocol.outcome)
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
          loop ())
    done
  done

let spawn_checkpointer c ~truncate =
  (* one fiber per site, checkpointing mid-workload: the images must
     summarize families whose protocol exchanges are still running *)
  for site = 0 to n_sites - 1 do
    let node = Camelot.Cluster.node c site in
    Camelot_mach.Site.spawn node.Camelot.Cluster.site (fun () ->
        let rec loop () =
          Camelot_sim.Fiber.sleep checkpoint_every_ms;
          if Camelot_sim.Fiber.now () < horizon_ms then begin
            Camelot.Cluster.checkpoint ~truncate c site;
            loop ()
          end
        in
        loop ())
  done

type snapshot = (int * string * int) list  (* site, key, value *)

let values c : snapshot =
  List.concat_map
    (fun site ->
      List.map
        (fun key ->
          (site, key, Camelot_server.Data_server.peek (Camelot.Cluster.server c site) key))
        keys)
    (List.init n_sites Fun.id)

let run_instance ~seed ~protocol ~truncate =
  let config = State.default_config ~threads:workers_per_site () in
  let c =
    Camelot.Cluster.create ~seed ~config ~logger:Camelot.Cluster.Adaptive
      ~sites:n_sites ()
  in
  spawn_workload c ~seed ~protocol;
  spawn_checkpointer c ~truncate;
  (* run past the horizon so every transaction resolves *)
  Camelot.Cluster.run ~until:(horizon_ms +. 2_000.0) c;
  let pre = values c in
  let truncated_sites =
    List.filter
      (fun i -> Camelot_wal.Log.base_lsn (Camelot.Cluster.log c i) > 0)
      (List.init n_sites Fun.id)
  in
  (* durability hammer: only log-backed state survives *)
  Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
      for i = 0 to n_sites - 1 do
        Camelot.Cluster.crash_site c i
      done;
      for i = 0 to n_sites - 1 do
        ignore (Camelot.Cluster.restart_site c i : Tid.t list)
      done);
  (* bounded: the restarted logger daemons keep periodic timers armed *)
  Camelot.Cluster.run ~until:(horizon_ms +. 4_000.0) c;
  (pre, values c, truncated_sites)

let test_truncated_equals_full_recovery () =
  List.iter
    (fun protocol ->
      List.iter
        (fun seed ->
          let case =
            Format.asprintf "%a seed %d" Protocol.pp_commit_protocol protocol
              seed
          in
          let pre_t, post_t, truncated =
            run_instance ~seed ~protocol ~truncate:true
          in
          let pre_f, post_f, _ = run_instance ~seed ~protocol ~truncate:false in
          (* the twins really were in lockstep before the crash *)
          Alcotest.(check (list (triple int string int)))
            (case ^ ": twins agree pre-crash") pre_f pre_t;
          (* the property is vacuous unless truncation actually happened *)
          Alcotest.(check bool)
            (case ^ ": some site truncated")
            true (truncated <> []);
          Alcotest.(check (list (triple int string int)))
            (case ^ ": full-log recovery preserves state") pre_f post_f;
          Alcotest.(check (list (triple int string int)))
            (case ^ ": truncated recovery equals full recovery") post_f post_t)
        [ 7; 11; 23; 42; 101 ])
    [
      Protocol.Two_phase;
      Protocol.Nonblocking;
      Protocol.Paxos_commit;
      Protocol.Short_commit;
    ]

(* The twin case for a Refusal record: test_failures' "non-blocking:
   abort via takeover", over values committed at 1 beforehand. The
   coordinator dies between the last vote and its outcome, no
   Replication record exists anywhere, and the subordinates' takeover
   forces Refusals to assemble an abort quorum. Once both are durable
   every site checkpoints, truncating in one twin only; after the abort
   settles, every site crashes and restarts. Returns the values and the
   family's status at every site before the crash and after recovery,
   the quorum-abort images the checkpoints carried, and the sites whose
   log was truncated. *)
let refusal_twin ~truncate =
  let c = Testutil.quiet_cluster ~sites:3 () in
  let sites = List.init 3 Fun.id in
  let write ~origin tid ~site key v =
    ignore
      (Camelot.Cluster.op c ~origin tid ~site (Camelot_server.Data_server.Write (key, v))
        : int)
  in
  let tid = ref None in
  let snapshot () =
    let tid = Option.get !tid in
    ( List.concat_map
        (fun site ->
          List.map (fun key -> (site, key, Testutil.peek c site key)) [ "vb"; "vc" ])
        sites,
      List.map (fun site -> Tranman.status (Camelot.Cluster.tranman c site) tid) sites
    )
  in
  let refusal_durable site =
    List.exists
      (fun (_, r) -> Testutil.is_refusal r)
      (Camelot_wal.Log.durable_records (Camelot.Cluster.log c site))
  in
  let quorum_abort_images site =
    List.fold_left
      (fun n (_, r) ->
        match r with
        | Record.Checkpoint { ck_families; _ } ->
            n
            + List.length
                (List.filter
                   (fun im -> im.Record.fi_quorum = Record.Q_abort)
                   ck_families)
        | _ -> n)
      0
      (Camelot_wal.Log.durable_records (Camelot.Cluster.log c site))
  in
  let pre, images =
    Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
        List.iter
          (fun (site, key) ->
            let tm = Camelot.Cluster.tranman c site in
            let t = Tranman.begin_transaction tm in
            write ~origin:site t ~site key 1;
            Testutil.check_committed (Tranman.commit tm t))
          [ (1, "vb"); (2, "vc") ];
        let tm = Camelot.Cluster.tranman c 0 in
        Camelot_mach.Site.spawn (Camelot.Cluster.node c 0).Camelot.Cluster.site
          (fun () ->
            let t = Tranman.begin_transaction tm in
            tid := Some t;
            write ~origin:0 t ~site:1 "vb" 2;
            write ~origin:0 t ~site:2 "vc" 3;
            (* the coordinator's site dies under this call *)
            match Tranman.commit tm ~protocol:Protocol.Nonblocking t with
            | (_ : Protocol.outcome) -> ()
            | exception Camelot_mach.Rpc.Rpc_failure _ -> ());
        Testutil.crash_coordinator_at_votes_collected c;
        Testutil.wait_until ~what:"refusals durable" (fun () ->
            refusal_durable 1 && refusal_durable 2);
        List.iter (fun site -> Camelot.Cluster.checkpoint ~truncate c site) sites;
        Testutil.wait_until ~what:"abort applied" (fun () ->
            Testutil.peek c 1 "vb" = 1 && Testutil.peek c 2 "vc" = 1);
        Camelot_sim.Fiber.sleep 1_000.0;
        let pre = snapshot () in
        let images = List.fold_left (fun n s -> n + quorum_abort_images s) 0 sites in
        List.iter (Camelot.Cluster.crash_site c) sites;
        List.iter
          (fun site -> ignore (Camelot.Cluster.restart_site c site : Tid.t list))
          sites;
        (pre, images))
  in
  Testutil.settle c 2_000.0;
  let truncated =
    List.filter
      (fun site -> Camelot_wal.Log.base_lsn (Camelot.Cluster.log c site) > 0)
      sites
  in
  (pre, snapshot (), images, truncated)

let test_refusal_crosses_checkpoint () =
  let values = Alcotest.(list (triple int string int)) in
  let statuses = Alcotest.list Testutil.status_testable in
  let (pre_vt, pre_st), (post_vt, post_st), _, truncated =
    refusal_twin ~truncate:true
  in
  let (pre_vf, pre_sf), (post_vf, post_sf), images, _ = refusal_twin ~truncate:false in
  Alcotest.check values "twins agree pre-crash" pre_vf pre_vt;
  Alcotest.check statuses "twins' statuses agree pre-crash" pre_sf pre_st;
  (* not vacuous: the refusing sites truncated, and a Refusal crossed *)
  Alcotest.(check (list int)) "refusing sites truncated" [ 1; 2 ]
    (List.filter (fun s -> s <> 0) truncated);
  Alcotest.(check bool) "a checkpoint carried a quorum-abort image" true (images > 0);
  Alcotest.check values "full-log recovery preserves state" pre_vf post_vf;
  Alcotest.check values "truncated recovery equals full recovery" post_vf post_vt;
  Alcotest.check statuses "recovered statuses agree" post_sf post_st

(* A short-commit family drops its coordinator-site locks when its vote
   round starts, so a later local transaction can overwrite the key and
   commit before the family resolves. Family A writes k=5 at site 0 and
   j=6 at site 1; site 1 is partitioned off, so A's vote round times
   out. Meanwhile B writes k=7 at site 0 and commits, and site 0
   checkpoints while A still collects votes; then A aborts. The
   checkpoint must not carry A's overtaken write: a restart would redo
   it as 0 -> 7 and then undo it as a loser, losing B's committed 7.
   Returns k at site 0 live before the crash and after recovery. *)
let overtaken_release_twin ~truncate =
  let c = Testutil.quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let write tid ~site key v =
    ignore
      (Camelot.Cluster.op c ~origin:0 tid ~site (Camelot_server.Data_server.Write (key, v))
        : int)
  in
  let operated = ref false and go = ref false and result = ref None in
  Camelot_mach.Site.spawn (Camelot.Cluster.node c 0).Camelot.Cluster.site (fun () ->
      let a = Tranman.begin_transaction tm in
      write a ~site:0 "k" 5;
      write a ~site:1 "j" 6;
      operated := true;
      Testutil.wait_until ~what:"site 1 partitioned" (fun () -> !go);
      result := Some (Tranman.commit tm ~protocol:Protocol.Short_commit a));
  Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
      Testutil.wait_until ~what:"A's operations done" (fun () -> !operated);
      Camelot.Cluster.partition c [ [ 0 ]; [ 1 ] ];
      go := true;
      Testutil.wait_until ~what:"k released early" (fun () ->
          Camelot_lock.Lock_table.holders
            (Camelot_server.Data_server.locks (Camelot.Cluster.server c 0))
            ~key:"k"
          = []);
      let b = Tranman.begin_transaction tm in
      write b ~site:0 "k" 7;
      Testutil.check_committed (Tranman.commit tm b);
      Alcotest.(check bool) "A still collecting votes" true (!result = None);
      Camelot.Cluster.checkpoint ~truncate c 0;
      Testutil.wait_until ~what:"A aborted" (fun () ->
          !result = Some Protocol.Aborted);
      let live = Testutil.peek c 0 "k" in
      Camelot.Cluster.heal c;
      Camelot_sim.Fiber.sleep 2_000.0;
      Camelot.Cluster.crash_site c 0;
      ignore (Camelot.Cluster.restart_site c 0 : Tid.t list);
      (live, Testutil.peek c 0 "k"))

let test_overtaken_release_not_carried () =
  List.iter
    (fun truncate ->
      let twin = if truncate then "truncated" else "full" in
      let live, recovered = overtaken_release_twin ~truncate in
      Alcotest.(check int) (twin ^ ": B's value live") 7 live;
      Alcotest.(check int) (twin ^ ": B's value recovered") 7 recovered)
    [ true; false ]

let test_auto_checkpointer_truncates_and_recovers () =
  (* the automatic checkpointer daemon: no explicit checkpoint calls,
     just a record-count threshold — the log must stay bounded and
     recovery must still work off the truncated prefix *)
  let seed = 5 in
  let config = State.default_config ~threads:workers_per_site () in
  let c =
    Camelot.Cluster.create ~seed ~config ~logger:Camelot.Cluster.Adaptive
      ~checkpoint_every:16 ~sites:n_sites ()
  in
  spawn_workload c ~seed ~protocol:Protocol.Two_phase;
  Camelot.Cluster.run ~until:(horizon_ms +. 2_000.0) c;
  let pre = values c in
  List.iter
    (fun i ->
      let log = Camelot.Cluster.log c i in
      Alcotest.(check bool)
        (Printf.sprintf "site %d checkpointed automatically" i)
        true
        (Camelot_wal.Log.truncations log > 0);
      Alcotest.(check bool)
        (Printf.sprintf "site %d log bounded" i)
        true
        (Camelot_wal.Log.base_lsn log > 0))
    (List.init n_sites Fun.id);
  Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
      for i = 0 to n_sites - 1 do
        Camelot.Cluster.crash_site c i
      done;
      for i = 0 to n_sites - 1 do
        ignore (Camelot.Cluster.restart_site c i : Tid.t list)
      done);
  Camelot.Cluster.run ~until:(horizon_ms +. 4_000.0) c;
  Alcotest.(check (list (triple int string int)))
    "recovered state matches pre-crash state" pre (values c)

let () =
  Alcotest.run "camelot_truncation"
    [
      ( "equivalence",
        [
          Alcotest.test_case "truncated recovery == full recovery" `Quick
            test_truncated_equals_full_recovery;
          Alcotest.test_case "refused participant: truncated == full recovery"
            `Quick test_refusal_crosses_checkpoint;
          Alcotest.test_case "auto checkpointer truncates and recovers" `Quick
            test_auto_checkpointer_truncates_and_recovers;
          Alcotest.test_case "overtaken early release not carried" `Quick
            test_overtaken_release_not_carried;
        ] );
    ]
