(* Failure-injection tests: crashes, partitions, recovery, blocking and
   the non-blocking protocol's takeover machinery.

   Orchestration runs in a groupless fiber (it survives site crashes);
   application work runs in site-group fibers so a crash kills it, as a
   real crash would kill the application process. *)

open Camelot_sim
open Camelot_mach
open Camelot_core
open Camelot_server
open Testutil

let spawn_txn c ~origin ?protocol ~ops () =
  (* run begin/ops/commit as an application on the origin site; record
     the outcome when (if) the commit returns *)
  let tm = Camelot.Cluster.tranman c origin in
  let result = ref None in
  let tid_cell = ref None in
  Site.spawn (Camelot.Cluster.node c origin).Camelot.Cluster.site (fun () ->
      let tid = Tranman.begin_transaction tm in
      tid_cell := Some tid;
      List.iter
        (fun (site, o) -> ignore (Camelot.Cluster.op c ~origin tid ~site o : int))
        ops;
      result := Some (Tranman.commit tm ?protocol tid));
  (result, tid_cell)

let orchestrate c body =
  let eng = Camelot.Cluster.engine c in
  Fiber.run eng body

(* ------------------------------------------------------------------ *)
(* Two-phase commit failures *)

let test_2pc_partition_presumed_abort () =
  (* the vote is lost in a partition; the coordinator times out and
     aborts; the prepared subordinate is blocked, holding its locks,
     until the partition heals and its inquiry learns the abort *)
  let c = quiet_cluster ~sites:2 () in
  let result, _ =
    spawn_txn c ~origin:0 ~ops:[ (0, Data_server.Write ("a", 1)); (1, Data_server.Write ("b", 2)) ] ()
  in
  orchestrate c (fun () ->
      (* cut the network the moment the subordinate has prepared: its
         vote datagram is still in flight and will be dropped *)
      wait_until ~what:"sub prepared" (fun () -> has_record c 1 is_prepare);
      Camelot.Cluster.partition c [ [ 0 ]; [ 1 ] ];
      (* coordinator: vote timeout + retries -> abort *)
      wait_until ~what:"coordinator aborted" (fun () -> !result = Some Protocol.Aborted);
      Alcotest.(check int) "coordinator undone" 0 (peek c 0 "a");
      (* subordinate is blocked: value still applied, lock still held *)
      Alcotest.(check int) "sub value held" 2 (peek c 1 "b");
      Alcotest.(check bool) "sub lock held" true
        (List.length
           (Camelot_lock.Lock_table.holders
              (Data_server.locks (Camelot.Cluster.server c 1))
              ~key:"b")
        > 0);
      Fiber.sleep 1000.0;
      Alcotest.(check int) "still blocked while partitioned" 2 (peek c 1 "b");
      Camelot.Cluster.heal c;
      (* inquiry reaches the coordinator; presumed abort resolves it *)
      wait_until ~what:"sub aborted" (fun () -> peek c 1 "b" = 0);
      Alcotest.(check int) "sub lock released" 0
        (List.length
           (Camelot_lock.Lock_table.holders
              (Data_server.locks (Camelot.Cluster.server c 1))
              ~key:"b")))

let test_2pc_lost_outcome_retransmitted () =
  (* the commit notice is lost; the coordinator retransmits until the
     subordinate acknowledges *)
  let c = quiet_cluster ~sites:2 () in
  let result, _ =
    spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("k", 5)) ] ()
  in
  orchestrate c (fun () ->
      (* cut just as the coordinator decides: the outcome datagram is
         dropped at delivery time *)
      wait_until ~what:"coordinator committed" (fun () -> has_record c 0 is_commit);
      Camelot.Cluster.partition c [ [ 0 ]; [ 1 ] ];
      wait_until ~what:"commit returned" (fun () -> !result = Some Protocol.Committed);
      Fiber.sleep 500.0;
      Alcotest.(check bool) "sub still undecided" false (has_record c 1 is_commit);
      Camelot.Cluster.heal c;
      wait_until ~what:"sub committed" (fun () -> has_record c 1 is_commit);
      wait_until ~what:"coordinator forgot (End)" (fun () -> has_record c 0 is_end);
      Alcotest.(check int) "value at sub" 5 (peek c 1 "k"))

let test_2pc_coordinator_crash_recovery_resumes_notify () =
  let c = quiet_cluster ~sites:2 () in
  let result, _ =
    spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("k", 5)) ] ()
  in
  orchestrate c (fun () ->
      wait_until ~what:"commit decided" (fun () -> !result = Some Protocol.Committed);
      (* crash before the ack round trip completes: the coordinator must
         not forget; after restart it resumes notification *)
      Camelot.Cluster.crash_site c 0;
      Fiber.sleep 200.0;
      ignore (Camelot.Cluster.restart_site c 0 : Tid.t list);
      wait_until ~what:"End written after recovery" (fun () -> has_record c 0 is_end);
      Alcotest.(check int) "sub committed" 5 (peek c 1 "k"))

let test_2pc_sub_crash_before_vote_aborts () =
  let c = quiet_cluster ~sites:2 () in
  let result, _ =
    spawn_txn c ~origin:0 ~ops:[ (0, Data_server.Write ("a", 1)); (1, Data_server.Write ("b", 2)) ] ()
  in
  orchestrate c (fun () ->
      (* kill the subordinate while the transaction is still operating:
         updates exist there but no prepare *)
      wait_until ~what:"sub touched" (fun () -> has_record c 1 is_update);
      Camelot.Cluster.crash_site c 1;
      wait_until ~what:"coordinator aborts on vote timeout" (fun () ->
          !result = Some Protocol.Aborted);
      Alcotest.(check int) "coordinator undone" 0 (peek c 0 "a");
      ignore (Camelot.Cluster.restart_site c 1 : Tid.t list);
      Fiber.sleep 100.0;
      (* the durable update had no prepare: recovery undoes it *)
      Alcotest.(check int) "loser undone at sub" 0 (peek c 1 "b"))

let test_2pc_sub_crash_after_vote_in_doubt_commits () =
  let c = quiet_cluster ~sites:2 () in
  let result, _ =
    spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("k", 9)) ] ()
  in
  orchestrate c (fun () ->
      (* crash the sub the instant its prepare is durable (the vote
         datagram goes out in the same event as the force completion,
         so it is already in flight and survives the sender's crash) *)
      wait_until ~what:"sub prepare durable" (fun () ->
          List.exists
            (fun (_, r) -> is_prepare r)
            (Camelot_wal.Log.durable_records (Camelot.Cluster.log c 1)));
      Camelot.Cluster.crash_site c 1;
      wait_until ~what:"coordinator committed" (fun () -> !result = Some Protocol.Committed);
      Fiber.sleep 300.0;
      let in_doubt = Camelot.Cluster.restart_site c 1 in
      Alcotest.(check int) "one transaction in doubt" 1 (List.length in_doubt);
      (* in doubt: the value is held under a re-taken lock *)
      Alcotest.(check int) "value held during doubt" 9 (peek c 1 "k");
      (* the coordinator's outcome retransmission (or the sub's inquiry)
         resolves it *)
      wait_until ~what:"sub commits after recovery" (fun () -> has_record c 1 is_commit);
      wait_until ~what:"coordinator End" (fun () -> has_record c 0 is_end);
      Alcotest.(check int) "value committed" 9 (peek c 1 "k");
      (* the resolution must reach the (log-recovered) server: the
         re-taken lock is released *)
      wait_until ~what:"recovered lock released" (fun () ->
          Camelot_lock.Lock_table.holders
            (Data_server.locks (Camelot.Cluster.server c 1))
            ~key:"k"
          = []))

(* A watchdog is an engine timer, and a crash leaves it queued:
   [Site.after] drops an expiry whose site died or restarted since the
   timer was armed, as a crash kills its site's fibers. Site 1
   prepares, its vote is lost in a partition, and it crashes before
   its first inquiry is due. Down for over three timeouts, it counts no
   inquiry. Restarted, it re-arms the in-doubt family's watchdog;
   crashed and restarted again before that timer is due, the dead
   incarnation's timer stays silent too. The live incarnation's
   watchdog then inquires once, and presumed abort resolves the
   family. *)
let test_2pc_dead_incarnation_watchdog_silent () =
  let c = quiet_cluster ~sites:2 () in
  let timeout = (Camelot.Cluster.config c 1).State.subordinate_timeout_ms in
  let tm1 = Camelot.Cluster.tranman c 1 in
  let inquiries () = (Tranman.stats tm1).State.n_inquiries in
  let result, tid_cell =
    spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("k", 9)) ] ()
  in
  orchestrate c (fun () ->
      (* cut the network while the prepare force is in flight: the
         yes-vote leaves only once it completes *)
      wait_until ~what:"sub prepare appended" (fun () -> has_record c 1 is_prepare);
      Camelot.Cluster.partition c [ [ 0 ]; [ 1 ] ];
      let tid = Option.get !tid_cell in
      wait_until ~what:"sub prepared, watchdog armed" (fun () ->
          Tranman.status tm1 tid = Protocol.St_prepared);
      Camelot.Cluster.crash_site c 1;
      Fiber.sleep (3.5 *. timeout);
      Alcotest.(check int) "no inquiry while down" 0 (inquiries ());
      Alcotest.(check bool) "coordinator aborted on vote timeout" true
        (!result = Some Protocol.Aborted);
      let restart () =
        Alcotest.(check int) "family in doubt after restart" 1
          (List.length (Camelot.Cluster.restart_site c 1))
      in
      restart ();
      Fiber.sleep (timeout /. 4.0);
      Camelot.Cluster.crash_site c 1;
      Fiber.sleep (timeout /. 4.0);
      restart ();
      (* past the dead incarnation's expiry, before the live one's *)
      Fiber.sleep (0.75 *. timeout);
      Alcotest.(check int) "dead incarnation's watchdog silent" 0 (inquiries ());
      Alcotest.(check int) "value held in doubt" 9 (peek c 1 "k");
      Camelot.Cluster.heal c;
      wait_until ~what:"presumed abort by inquiry" (fun () -> peek c 1 "k" = 0);
      Alcotest.check status_testable "resolved" Protocol.St_aborted
        (Tranman.status tm1 tid);
      Alcotest.(check int) "the live watchdog inquired once" 1 (inquiries ()))

(* ------------------------------------------------------------------ *)
(* Non-blocking commit failures *)

let nb_ops = [ (1, Data_server.Write ("b", 2)); (2, Data_server.Write ("c", 3)) ]

let test_nb_coordinator_crash_after_replication_commits () =
  (* any single failure: coordinator dies after the replication phase
     reached both subordinates; the takeover finds a commit quorum *)
  let c = quiet_cluster ~sites:3 () in
  let _result, _ = spawn_txn c ~origin:0 ~protocol:Protocol.Nonblocking ~ops:nb_ops () in
  orchestrate c (fun () ->
      wait_until ~what:"both subs replicated" (fun () ->
          has_record c 1 is_replication && has_record c 2 is_replication);
      Camelot.Cluster.crash_site c 0;
      (* subordinate watchdogs fire, take over, count 2 >= quorum 2 *)
      wait_until ~what:"subs commit via takeover" (fun () ->
          has_record c 1 is_commit && has_record c 2 is_commit);
      Alcotest.(check int) "b committed" 2 (peek c 1 "b");
      Alcotest.(check int) "c committed" 3 (peek c 2 "c");
      (* the dead coordinator recovers and learns the outcome *)
      ignore (Camelot.Cluster.restart_site c 0 : Tid.t list);
      wait_until ~what:"coordinator adopts commit" (fun () -> has_record c 0 is_commit))

let test_nb_coordinator_crash_before_replication_aborts () =
  let c = quiet_cluster ~sites:3 () in
  let _result, _ = spawn_txn c ~origin:0 ~protocol:Protocol.Nonblocking ~ops:nb_ops () in
  orchestrate c (fun () ->
      wait_until ~what:"both subs prepared" (fun () ->
          has_record c 1 is_prepare && has_record c 2 is_prepare);
      Camelot.Cluster.crash_site c 0;
      (* no replication record exists anywhere: the takeover assembles
         an abort quorum of refusals (2 of 3) *)
      wait_until ~what:"subs abort via takeover" (fun () ->
          peek c 1 "b" = 0 && peek c 2 "c" = 0);
      Alcotest.(check bool) "refusal records forced" true
        (has_record c 1 is_refusal || has_record c 2 is_refusal))

let test_nb_partition_heals_consistently () =
  let c = quiet_cluster ~sites:3 () in
  let result, _ = spawn_txn c ~origin:0 ~protocol:Protocol.Nonblocking ~ops:nb_ops () in
  orchestrate c (fun () ->
      wait_until ~what:"both subs replicated" (fun () ->
          has_record c 1 is_replication && has_record c 2 is_replication);
      (* isolate the coordinator: the replicate-acks are dropped *)
      Camelot.Cluster.partition c [ [ 0 ]; [ 1; 2 ] ];
      wait_until ~what:"subs commit via takeover" (fun () ->
          has_record c 1 is_commit && has_record c 2 is_commit);
      Alcotest.(check bool) "coordinator still waiting" true (!result = None);
      Camelot.Cluster.heal c;
      (* after healing, the coordinator's re-replication is re-acked (or
         the outcome reaches it) and its commit call returns *)
      wait_until ~what:"coordinator commit returns" (fun () ->
          !result = Some Protocol.Committed);
      Alcotest.(check bool) "coordinator commit record" true (has_record c 0 is_commit))

let test_nb_double_failure_blocks_until_repair () =
  (* two of three sites die: the survivor can form neither quorum and
     stays blocked — which is the provably optimal behaviour — until a
     site returns *)
  let c = quiet_cluster ~sites:3 () in
  let _result, _ = spawn_txn c ~origin:0 ~protocol:Protocol.Nonblocking ~ops:nb_ops () in
  orchestrate c (fun () ->
      wait_until ~what:"both subs prepared" (fun () ->
          has_record c 1 is_prepare && has_record c 2 is_prepare);
      Camelot.Cluster.crash_site c 0;
      Camelot.Cluster.crash_site c 2;
      (* survivor takes over but cannot decide *)
      Fiber.sleep 3000.0;
      Alcotest.(check bool) "survivor undecided" false
        (has_record c 1 is_commit || has_record c 1 is_abort);
      Alcotest.(check int) "survivor's value still held" 2 (peek c 1 "b");
      (* repair one site: the abort quorum becomes reachable *)
      ignore (Camelot.Cluster.restart_site c 2 : Tid.t list);
      wait_until ~what:"abort after repair" (fun () -> peek c 1 "b" = 0 && peek c 2 "c" = 0))

let test_nb_sub_crash_tolerated () =
  (* single failure of a subordinate after it replicated: quorum 2 of 3
     still reachable, the commit proceeds without it, and its recovery
     adopts the outcome *)
  let c = quiet_cluster ~sites:3 () in
  let result, _ = spawn_txn c ~origin:0 ~protocol:Protocol.Nonblocking ~ops:nb_ops () in
  orchestrate c (fun () ->
      wait_until ~what:"sub1 replicated" (fun () -> has_record c 1 is_replication);
      Camelot.Cluster.crash_site c 2;
      wait_until ~what:"commit decided despite dead sub" (fun () ->
          !result = Some Protocol.Committed);
      ignore (Camelot.Cluster.restart_site c 2 : Tid.t list);
      wait_until ~what:"crashed sub adopts commit" (fun () -> peek c 2 "c" = 3))

(* ------------------------------------------------------------------ *)
(* The decision-point crash, uniformly across all four protocols: the
   coordinator dies between collecting the last vote and logging the
   outcome (the [coord.votes.collected] fault point). What happens next
   is exactly what distinguishes the protocols:

   - 2PC: nothing durable backs the decision; the prepared subordinates
     resolve to presumed abort by inquiry after the restart;
   - non-blocking: no replication record exists anywhere, so the
     subordinate takeover assembles an abort quorum;
   - Paxos Commit at F = 1: every vote is a durably forced ballot-0
     acceptance at 2F+1 acceptors — the recovery coordinator reads the
     full vote set back from a promise quorum and COMMITS;
   - Paxos Commit at F = 0: the sole acceptor rode the crashed
     coordinator and its spooled acceptances are gone — abort;
   - short-commit: locks were already released at prepare time; the
     forced Collecting record with no outcome resolves to abort and the
     conditional undo restores the early-released values. *)

let crash_at_votes_collected ~protocol ?(paxos_f = 0) ~expect () =
  let cfg = fast_config () in
  cfg.State.paxos_f <- paxos_f;
  let c = quiet_cluster ~config:cfg ~sites:3 () in
  let _result, _ =
    spawn_txn c ~origin:0 ~protocol
      ~ops:[ (1, Data_server.Write ("vb", 2)); (2, Data_server.Write ("vc", 3)) ]
      ()
  in
  orchestrate c (fun () ->
      crash_coordinator_at_votes_collected c;
      match expect with
      | `Commit ->
          wait_until ~what:"subs commit" (fun () ->
              peek c 1 "vb" = 2 && peek c 2 "vc" = 3);
          wait_until ~what:"recovered coordinator adopts the commit" (fun () ->
              has_record c 0 is_commit)
      | `Abort ->
          wait_until ~what:"all sites undone" (fun () ->
              peek c 1 "vb" = 0 && peek c 2 "vc" = 0);
          Alcotest.(check bool) "no commit record anywhere" false
            (has_record c 0 is_commit || has_record c 1 is_commit
           || has_record c 2 is_commit))

let test_votes_collected_crash_2pc =
  crash_at_votes_collected ~protocol:Protocol.Two_phase ~expect:`Abort

let test_votes_collected_crash_nb =
  crash_at_votes_collected ~protocol:Protocol.Nonblocking ~expect:`Abort

let test_votes_collected_crash_paxos_f1 =
  crash_at_votes_collected ~protocol:Protocol.Paxos_commit ~paxos_f:1
    ~expect:`Commit

let test_votes_collected_crash_paxos_f0 =
  crash_at_votes_collected ~protocol:Protocol.Paxos_commit ~paxos_f:0
    ~expect:`Abort

let test_votes_collected_crash_short =
  crash_at_votes_collected ~protocol:Protocol.Short_commit ~expect:`Abort

(* ------------------------------------------------------------------ *)
(* Quiescence: once every site is up and every outcome is applied, no
   outcome notice is resent for ever. A notice is retransmitted until
   acknowledged only when its protocol acknowledges that outcome
   ([State.presumption]): short-commit presumes commit, so its commits
   are never acknowledged and its aborts always are. *)

(* The coordinator dies at its commit point (the commit record forced,
   no notice sent yet) and restarts 300 ms later. After a 2 s settle
   the subordinate has committed and the LAN stays silent. *)
let commit_point_crash ~protocol () =
  let c = quiet_cluster ~sites:2 () in
  let _result, _ =
    spawn_txn c ~origin:0 ~protocol
      ~ops:[ (0, Data_server.Write ("a", 1)); (1, Data_server.Write ("k", 5)) ]
      ()
  in
  let point =
    match protocol with
    | Protocol.Nonblocking -> "nb.commit.forced"
    | Protocol.Two_phase | Protocol.Paxos_commit | Protocol.Short_commit ->
        "coord.commit.forced"
  in
  orchestrate c (fun () ->
      crash_coordinator_at ~point c;
      Fiber.sleep 2000.0;
      Alcotest.(check int) "no datagram in 30 s" 0 (datagrams_during c 30_000.0);
      Alcotest.(check bool) "sub committed" true (has_record c 1 is_commit);
      Alcotest.(check int) "value at sub" 5 (peek c 1 "k"))

(* Site 1 crashes after its update is durable but before any prepare
   reaches it, so its restart rebuilds the family from the update
   record alone, as 2PC, and aborts it. The short-commit coordinator
   has forced its abort and notifies it until acknowledged: the
   rebuilt family must acknowledge by the notice's protocol. *)
let test_short_abort_to_rebuilt_family () =
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let operated = ref false in
  let go = ref false in
  let result = ref None in
  Site.spawn (Camelot.Cluster.node c 0).Camelot.Cluster.site (fun () ->
      let tid = Tranman.begin_transaction tm in
      ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("a", 1)) : int);
      ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Write ("k", 5)) : int);
      operated := true;
      wait_until ~what:"site 1 down" (fun () -> !go);
      result := Some (Tranman.commit tm ~protocol:Protocol.Short_commit tid));
  orchestrate c (fun () ->
      wait_until ~what:"both operations done" (fun () -> !operated);
      (* the flusher makes the update durable *)
      wait_until ~what:"sub update durable" (fun () ->
          List.exists
            (fun (_, r) -> is_update r)
            (Camelot_wal.Log.durable_records (Camelot.Cluster.log c 1)));
      Camelot.Cluster.crash_site c 1;
      go := true;
      wait_until ~what:"vote round timed out" (fun () ->
          !result = Some Protocol.Aborted);
      Fiber.sleep 1000.0;
      ignore (Camelot.Cluster.restart_site c 1 : Tid.t list);
      Fiber.sleep 2000.0;
      Alcotest.(check int) "no datagram in 30 s" 0 (datagrams_during c 30_000.0);
      Alcotest.(check bool) "coordinator forgot (End)" true (has_record c 0 is_end);
      Alcotest.(check int) "value undone at sub" 0 (peek c 1 "k"))

(* ------------------------------------------------------------------ *)
(* Recovery of local state *)

let test_recovery_redo_winners_undo_losers () =
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 1 in
  orchestrate c (fun () ->
      (* loser: a subordinate-side update made durable by a later force,
         but never committed *)
      let loser, _ =
        spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("loser", 7)) ] ()
      in
      (* block its outcome so it stays prepared *)
      wait_until ~what:"loser prepared" (fun () -> has_record c 1 is_prepare);
      ignore loser;
      (* winner: a local transaction at site 1 *)
      let w = ref None in
      Site.spawn (Camelot.Cluster.node c 1).Camelot.Cluster.site (fun () ->
          let tid = Tranman.begin_transaction tm in
          ignore (Camelot.Cluster.op c ~origin:1 tid ~site:1 (Data_server.Write ("winner", 3)) : int);
          w := Some (Tranman.commit tm tid));
      wait_until ~what:"winner committed" (fun () -> !w = Some Protocol.Committed);
      Fiber.sleep 2000.0;
      (* both are long resolved now (loser committed via 2PC, actually).
         Instead assert pure replay: crash and restart site 1; all
         committed state must survive *)
      let before_winner = peek c 1 "winner" in
      let before_loser = peek c 1 "loser" in
      Camelot.Cluster.crash_site c 1;
      ignore (Camelot.Cluster.restart_site c 1 : Tid.t list);
      Fiber.sleep 100.0;
      Alcotest.(check int) "winner value after replay" before_winner (peek c 1 "winner");
      Alcotest.(check int) "committed remote value after replay" before_loser
        (peek c 1 "loser"))

let test_recovery_loses_unforced_tail () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  orchestrate c (fun () ->
      let done1 = ref None in
      Site.spawn (Camelot.Cluster.node c 0).Camelot.Cluster.site (fun () ->
          let tid = Tranman.begin_transaction tm in
          ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("a", 1)) : int);
          done1 := Some (Tranman.commit tm tid);
          (* an uncommitted write follows; it stays volatile *)
          let tid2 = Tranman.begin_transaction tm in
          ignore (Camelot.Cluster.op c ~origin:0 tid2 ~site:0 (Data_server.Write ("b", 2)) : int));
      wait_until ~what:"first committed" (fun () -> !done1 = Some Protocol.Committed);
      (* crash before anything forces the second transaction's records *)
      Camelot.Cluster.crash_site c 0;
      ignore (Camelot.Cluster.restart_site c 0 : Tid.t list);
      Fiber.sleep 50.0;
      Alcotest.(check int) "committed value recovered" 1 (peek c 0 "a");
      Alcotest.(check int) "volatile write lost" 0 (peek c 0 "b"))

let test_operation_failure_aborts_transaction () =
  (* the §2/§3.1 rule end to end: "if some operation fails to respond,
     the site that invoked it should eventually initiate the abort
     protocol" — the RPC breaks, the application aborts, every touched
     site is undone *)
  let c = quiet_cluster ~sites:3 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let outcome = ref None in
  Site.spawn (Camelot.Cluster.node c 0).Camelot.Cluster.site (fun () ->
      let tid = Tranman.begin_transaction tm in
      ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Write ("b", 2)) : int);
      (match Camelot.Cluster.op c ~origin:0 tid ~site:2 (Data_server.Write ("x", 1)) with
      | (_ : int) -> Alcotest.fail "operation to dead site succeeded"
      | exception Rpc.Rpc_failure _ -> Tranman.abort tm tid);
      outcome := Tranman.outcome tm tid);
  orchestrate c (fun () ->
      (* kill site 2 before the second operation reaches it *)
      wait_until ~what:"first op landed" (fun () -> has_record c 1 is_update);
      Camelot.Cluster.crash_site c 2;
      wait_until ~what:"application aborted" (fun () -> !outcome = Some Protocol.Aborted);
      wait_until ~what:"first site undone" (fun () -> peek c 1 "b" = 0))

let test_abort_with_incomplete_knowledge () =
  (* abort while a vote is outstanding: the coordinator can abort
     without knowing every site's state; the unreachable subordinate
     resolves later by inquiry *)
  let c = quiet_cluster ~sites:2 () in
  let result, tid_cell =
    spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("k", 5)) ] ()
  in
  orchestrate c (fun () ->
      wait_until ~what:"sub prepared" (fun () -> has_record c 1 is_prepare);
      Camelot.Cluster.partition c [ [ 0 ]; [ 1 ] ];
      wait_until ~what:"coordinator aborted by timeout" (fun () ->
          !result = Some Protocol.Aborted);
      ignore (Option.get !tid_cell : Tid.t);
      Camelot.Cluster.heal c;
      wait_until ~what:"sub learns the abort by inquiry" (fun () -> peek c 1 "k" = 0))

(* ------------------------------------------------------------------ *)
(* Recovery idempotence: recovering twice — or crashing during
   recovery and recovering again — must land in the same state, since
   a site can always crash again before its first recovery finishes. *)

(* Leave site 1 with one committed value ("w"=4) and one in-doubt
   prepared transaction ("k"=9, lock held) and crash it. *)
let setup_crashed_site_with_in_doubt c =
  let w, _ = spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("w", 4)) ] () in
  wait_until ~what:"winner committed" (fun () -> !w = Some Protocol.Committed);
  wait_until ~what:"winner durable at sub" (fun () ->
      List.exists
        (fun (_, r) -> is_commit r)
        (Camelot_wal.Log.durable_records (Camelot.Cluster.log c 1)));
  let _doubt, _ = spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("k", 9)) ] () in
  (* cut the network while the second prepare force (the winner already
     left one prepare record here) is still in flight: the yes-vote
     (sent only once the force completes) is dropped, so the
     coordinator never decides and the subordinate stays prepared *)
  let durable_prepares () =
    List.length
      (List.filter
         (fun (_, r) -> is_prepare r)
         (Camelot_wal.Log.durable_records (Camelot.Cluster.log c 1)))
  in
  wait_until ~what:"in-doubt prepare appended" (fun () ->
      count_records c 1 is_prepare >= 2);
  Camelot.Cluster.partition c [ [ 0 ]; [ 1 ] ];
  wait_until ~what:"in-doubt prepare durable" (fun () -> durable_prepares () >= 2);
  Camelot.Cluster.crash_site c 1;
  (* let the in-flight yes-vote reach its delivery time and die against
     the partition before any restart heals the network: the scenario
     must deterministically stay in doubt *)
  Fiber.sleep 500.0

let snapshot_site c site =
  let locks =
    List.map
      (fun (key, owner, mode) -> (key, Tid.to_string owner, mode))
      (Camelot_lock.Lock_table.all_held
         (Data_server.locks (Camelot.Cluster.server c site)))
  in
  (peek c site "w", peek c site "k", List.sort compare locks)

let test_recovery_run_twice_identical () =
  let c = quiet_cluster ~sites:2 () in
  orchestrate c (fun () ->
      setup_crashed_site_with_in_doubt c;
      let in_doubt1 = Camelot.Cluster.restart_site c 1 in
      Alcotest.(check int) "one in doubt after first recovery" 1
        (List.length in_doubt1);
      let s1 = snapshot_site c 1 in
      (* run recovery a second time over the same log, exactly as a
         restart would (servers reset, then replay) *)
      let n = Camelot.Cluster.node c 1 in
      List.iter
        (fun srv ->
          Data_server.reset srv;
          Data_server.reattach srv)
        n.Camelot.Cluster.servers;
      let in_doubt2 =
        Camelot_recovery.Recovery.run ~tranman:n.Camelot.Cluster.tranman
          ~servers:n.Camelot.Cluster.servers ()
      in
      Alcotest.(check int) "same in-doubt set" (List.length in_doubt1)
        (List.length in_doubt2);
      let s2 = snapshot_site c 1 in
      Alcotest.(check bool) "identical store and lock state" true (s1 = s2);
      let w, k, locks = s2 in
      Alcotest.(check int) "committed value survived both replays" 4 w;
      Alcotest.(check int) "in-doubt value held" 9 k;
      Alcotest.(check int) "exactly one lock held" 1 (List.length locks);
      (* heal: the inquiry loop resolves the in-doubt to presumed abort *)
      Camelot.Cluster.heal c;
      wait_until ~what:"in-doubt resolved to abort" (fun () -> peek c 1 "k" = 0);
      wait_until ~what:"locks free" (fun () ->
          Camelot_lock.Lock_table.all_held
            (Data_server.locks (Camelot.Cluster.server c 1))
          = []);
      Alcotest.(check int) "committed value intact" 4 (peek c 1 "w"))

let test_crash_mid_recovery_then_recover ~at () =
  let c = quiet_cluster ~sites:2 () in
  orchestrate c (fun () ->
      setup_crashed_site_with_in_doubt c;
      (* kill site 1 again the moment its recovery reaches [at]; the
         recovery here runs in this orchestrator fiber, so the crash
         surfaces as [Camelot_chaos.Killed] *)
      let hits = ref 0 in
      Camelot_chaos.attach
        ~on_hit:(fun ~point ~site ->
          if point = at && site = 1 then begin
            incr hits;
            if !hits = 1 then Camelot_chaos.Kill else Camelot_chaos.Pass
          end
          else Camelot_chaos.Pass)
        ~on_note:(fun ~site:_ _ -> ())
        ~crash:(fun ~site -> Camelot.Cluster.crash_site c site);
      Fun.protect ~finally:Camelot_chaos.detach (fun () ->
          (match Camelot.Cluster.restart_site c 1 with
          | (_ : Tid.t list) -> Alcotest.failf "recovery survived crash at %s" at
          | exception Camelot_chaos.Killed -> ());
          (* second recovery over the same log must complete and land in
             the canonical post-recovery state *)
          let in_doubt = Camelot.Cluster.restart_site c 1 in
          Alcotest.(check int) "one in doubt after re-recovery" 1
            (List.length in_doubt));
      let w, k, locks = snapshot_site c 1 in
      Alcotest.(check int) "committed value survived" 4 w;
      Alcotest.(check int) "in-doubt value held" 9 k;
      Alcotest.(check int) "exactly one lock held" 1 (List.length locks);
      Camelot.Cluster.heal c;
      wait_until ~what:"in-doubt resolved to abort" (fun () -> peek c 1 "k" = 0);
      Alcotest.(check int) "committed value intact" 4 (peek c 1 "w"))

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

let is_checkpoint = function Camelot_core.Record.Checkpoint _ -> true | _ -> false

let test_checkpoint_basic_replay () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  orchestrate c (fun () ->
      let put k v =
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write (k, v)) : int);
        match Tranman.commit tm tid with
        | Protocol.Committed -> ()
        | Protocol.Aborted -> Alcotest.fail "unexpected abort"
      in
      put "a" 1;
      put "b" 2;
      Camelot.Cluster.checkpoint c 0;
      put "b" 3;
      put "c" 4;
      Camelot.Cluster.crash_site c 0;
      ignore (Camelot.Cluster.restart_site c 0 : Tid.t list);
      Fiber.sleep 100.0;
      Alcotest.(check bool) "checkpoint durable" true
        (List.exists
           (fun (_, r) -> is_checkpoint r)
           (Camelot_wal.Log.durable_records (Camelot.Cluster.log c 0)));
      Alcotest.(check (list int)) "values across checkpoint"
        [ 1; 3; 4 ]
        [ peek c 0 "a"; peek c 0 "b"; peek c 0 "c" ])

let test_checkpoint_preserves_in_doubt () =
  (* a transaction is prepared-but-undecided at the subordinate when the
     checkpoint is taken; after a crash, recovery must restore it from
     the checkpoint's in-flight list: value held, lock held, and the
     eventual outcome applied *)
  let c = quiet_cluster ~sites:2 () in
  let result, _ = spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("k", 9)) ] () in
  orchestrate c (fun () ->
      wait_until ~what:"sub prepare durable" (fun () ->
          List.exists
            (fun (_, r) -> is_prepare r)
            (Camelot_wal.Log.durable_records (Camelot.Cluster.log c 1)));
      (* hold the outcome back so the sub stays in doubt *)
      Camelot.Cluster.partition c [ [ 0 ]; [ 1 ] ];
      Camelot.Cluster.checkpoint c 1;
      wait_until ~what:"coordinator decided" (fun () -> !result <> None);
      Camelot.Cluster.crash_site c 1;
      Fiber.sleep 100.0;
      let in_doubt = Camelot.Cluster.restart_site c 1 in
      Alcotest.(check int) "still in doubt after checkpointed recovery" 1
        (List.length in_doubt);
      Alcotest.(check int) "in-flight value restored from checkpoint" 9 (peek c 1 "k");
      Alcotest.(check bool) "lock re-taken" true
        (Camelot_lock.Lock_table.holders
           (Data_server.locks (Camelot.Cluster.server c 1))
           ~key:"k"
        <> []);
      Camelot.Cluster.heal c;
      (match !result with
      | Some Protocol.Committed ->
          wait_until ~what:"in-doubt resolves to commit" (fun () ->
              has_record c 1 is_commit && peek c 1 "k" = 9)
      | Some Protocol.Aborted | None ->
          wait_until ~what:"in-doubt resolves to abort" (fun () -> peek c 1 "k" = 0));
      Alcotest.(check int) "locks free after resolution" 0
        (List.length
           (Camelot_lock.Lock_table.holders
              (Data_server.locks (Camelot.Cluster.server c 1))
              ~key:"k")))

let test_checkpoint_drops_loser_in_flight () =
  (* an update that was in flight at checkpoint time but whose
     transaction never prepared is a loser: recovery must not resurrect
     it *)
  let c = quiet_cluster ~sites:2 () in
  Camelot.Cluster.each_config c (fun cfg -> cfg.State.orphan_timeout_ms <- 300.0);
  let _result, _ = spawn_txn c ~origin:0 ~ops:[ (1, Data_server.Write ("k", 5)); (0, Data_server.Write ("h", 1)) ] () in
  orchestrate c (fun () ->
      wait_until ~what:"sub touched" (fun () -> has_record c 1 is_update || peek c 1 "k" = 5);
      (* the client site dies mid-transaction; checkpoint the sub with
         the orphan in flight *)
      Camelot.Cluster.crash_site c 0;
      Camelot.Cluster.checkpoint c 1;
      Camelot.Cluster.crash_site c 1;
      ignore (Camelot.Cluster.restart_site c 1 : Tid.t list);
      ignore (Camelot.Cluster.restart_site c 0 : Tid.t list);
      (* the orphan watchdog inquires; presumed abort undoes it *)
      wait_until ~what:"orphan undone after checkpointed recovery" (fun () ->
          peek c 1 "k" = 0))

let () =
  Alcotest.run "camelot_failures"
    [
      ( "two_phase",
        [
          Alcotest.test_case "partition -> presumed abort" `Quick
            test_2pc_partition_presumed_abort;
          Alcotest.test_case "lost outcome retransmitted" `Quick
            test_2pc_lost_outcome_retransmitted;
          Alcotest.test_case "coordinator crash: recovery resumes notify" `Quick
            test_2pc_coordinator_crash_recovery_resumes_notify;
          Alcotest.test_case "sub crash before vote aborts" `Quick
            test_2pc_sub_crash_before_vote_aborts;
          Alcotest.test_case "sub crash after vote: in-doubt then commit" `Quick
            test_2pc_sub_crash_after_vote_in_doubt_commits;
          Alcotest.test_case "dead incarnation's watchdog stays silent" `Quick
            test_2pc_dead_incarnation_watchdog_silent;
        ] );
      ( "abort_protocol",
        [
          Alcotest.test_case "failed operation triggers abort (§2)" `Quick
            test_operation_failure_aborts_transaction;
          Alcotest.test_case "abort with incomplete knowledge" `Quick
            test_abort_with_incomplete_knowledge;
        ] );
      ( "nonblocking",
        [
          Alcotest.test_case "coordinator crash after replication: commit" `Quick
            test_nb_coordinator_crash_after_replication_commits;
          Alcotest.test_case "coordinator crash before replication: abort" `Quick
            test_nb_coordinator_crash_before_replication_aborts;
          Alcotest.test_case "partition heals consistently" `Quick
            test_nb_partition_heals_consistently;
          Alcotest.test_case "double failure blocks until repair" `Quick
            test_nb_double_failure_blocks_until_repair;
          Alcotest.test_case "subordinate crash tolerated" `Quick test_nb_sub_crash_tolerated;
        ] );
      ( "votes_collected_crash",
        [
          Alcotest.test_case "2PC: presumed abort" `Quick
            test_votes_collected_crash_2pc;
          Alcotest.test_case "non-blocking: abort via takeover" `Quick
            test_votes_collected_crash_nb;
          Alcotest.test_case "paxos F=1: commit via recovery coordinator" `Quick
            test_votes_collected_crash_paxos_f1;
          Alcotest.test_case "paxos F=0: spooled acceptances lost, abort" `Quick
            test_votes_collected_crash_paxos_f0;
          Alcotest.test_case "short-commit: conditional undo after release"
            `Quick test_votes_collected_crash_short;
        ] );
      ( "quiescence",
        [
          Alcotest.test_case "commit-point crash: 2PC silent" `Quick
            (commit_point_crash ~protocol:Protocol.Two_phase);
          Alcotest.test_case "commit-point crash: non-blocking silent" `Quick
            (commit_point_crash ~protocol:Protocol.Nonblocking);
          Alcotest.test_case "commit-point crash: paxos F=0 silent" `Quick
            (commit_point_crash ~protocol:Protocol.Paxos_commit);
          Alcotest.test_case "commit-point crash: short-commit silent" `Quick
            (commit_point_crash ~protocol:Protocol.Short_commit);
          Alcotest.test_case "short-commit abort to a rebuilt family silent"
            `Quick test_short_abort_to_rebuilt_family;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replay preserves committed state" `Quick
            test_recovery_redo_winners_undo_losers;
          Alcotest.test_case "unforced tail lost" `Quick test_recovery_loses_unforced_tail;
          Alcotest.test_case "recovery run twice is idempotent" `Quick
            test_recovery_run_twice_identical;
          Alcotest.test_case "crash during log scan, recover again" `Quick
            (test_crash_mid_recovery_then_recover ~at:"recovery.scan.done");
          Alcotest.test_case "crash during redo, recover again" `Quick
            (test_crash_mid_recovery_then_recover ~at:"recovery.redo.done");
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "replay from checkpoint" `Quick test_checkpoint_basic_replay;
          Alcotest.test_case "in-doubt survives checkpoint" `Quick
            test_checkpoint_preserves_in_doubt;
          Alcotest.test_case "in-flight loser not resurrected" `Quick
            test_checkpoint_drops_loser_in_flight;
        ] );
    ]
