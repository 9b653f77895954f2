(* Integration tests for distributed commitment: presumed-abort 2PC
   under the three §4.2 write variants, the read-only optimization, the
   non-blocking protocol's phases and log-force counts, multicast, and
   distributed nesting. *)

open Camelot_sim
open Camelot_core
open Camelot_server
open Testutil

let forces c site = Camelot_wal.Log.forces (Camelot.Cluster.log c site)

let run_update_txn c ?protocol ~origin ~update_sites () =
  let tm = Camelot.Cluster.tranman c origin in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let tid = Tranman.begin_transaction tm in
      List.iter
        (fun site ->
          ignore
            (Camelot.Cluster.op c ~origin tid ~site
               (Data_server.Add (Printf.sprintf "k%d" site, 1))
              : int))
        update_sites;
      Tranman.commit tm ?protocol tid)

(* --- two-phase commit --------------------------------------------- *)

let test_2pc_commit_both_sites () =
  let c = quiet_cluster ~sites:2 () in
  check_committed (run_update_txn c ~origin:0 ~update_sites:[ 0; 1 ] ());
  settle c 2000.0;
  Alcotest.(check int) "value at coordinator" 1 (peek c 0 "k0");
  Alcotest.(check int) "value at subordinate" 1 (peek c 1 "k1");
  Alcotest.(check bool) "sub prepared" true (has_record c 1 is_prepare);
  Alcotest.(check bool) "sub commit record" true (has_record c 1 is_commit);
  Alcotest.(check bool) "coordinator commit record" true (has_record c 0 is_commit);
  Alcotest.(check bool) "coordinator End after acks" true (has_record c 0 is_end)

let test_2pc_force_counts_by_variant () =
  (* §3.2: the optimization saves the subordinate one force per
     distributed update transaction *)
  let forces_for variant =
    let c = quiet_cluster ~sites:2 () in
    Camelot.Cluster.each_config c (fun cfg -> cfg.State.two_phase_variant <- variant);
    check_committed (run_update_txn c ~origin:0 ~update_sites:[ 0; 1 ] ());
    settle c 2000.0;
    (forces c 0, forces c 1)
  in
  let coord_opt, sub_opt = forces_for State.Optimized in
  let coord_unopt, sub_unopt = forces_for State.Unoptimized in
  let _, sub_semi = forces_for State.Semi_optimized in
  Alcotest.(check int) "coordinator: 1 force optimized" 1 coord_opt;
  Alcotest.(check int) "coordinator: 1 force unoptimized" 1 coord_unopt;
  Alcotest.(check int) "subordinate: 1 force optimized (prepare only)" 1 sub_opt;
  Alcotest.(check int) "subordinate: 2 forces unoptimized" 2 sub_unopt;
  Alcotest.(check int) "subordinate: 2 forces semi-optimized" 2 sub_semi

let test_2pc_optimized_locks_drop_before_durable () =
  (* the optimized subordinate releases locks before its commit record
     reaches the disk *)
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let tid = Tranman.begin_transaction tm in
      ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Write ("k", 1)) : int);
      check_committed (Tranman.commit tm tid);
      (* outcome datagram (~12ms) + handling: locks at sub drop quickly *)
      Fiber.sleep 30.0;
      let srv = Camelot.Cluster.server c 1 in
      Alcotest.(check int) "locks dropped" 0
        (List.length (Camelot_lock.Lock_table.holders (Data_server.locks srv) ~key:"k")))

let test_2pc_read_only_subordinate_skipped () =
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("x", 1)) : int);
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Read "y") : int);
        Tranman.commit tm tid)
  in
  check_committed o;
  settle c 2000.0;
  Alcotest.(check int) "read-only sub wrote nothing" 0 (count_records c 1 (fun _ -> true));
  Alcotest.(check int) "read-only sub forced nothing" 0 (forces c 1);
  Alcotest.(check bool) "coordinator still durable" true (has_record c 0 is_commit)

let test_2pc_wholly_read_only () =
  let c = quiet_cluster ~sites:3 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let tid = Tranman.begin_transaction tm in
        List.iter
          (fun site ->
            ignore (Camelot.Cluster.op c ~origin:0 tid ~site (Data_server.Read "x") : int))
          [ 0; 1; 2 ];
        Tranman.commit tm tid)
  in
  check_committed o;
  settle c 1000.0;
  List.iter
    (fun site ->
      Alcotest.(check int)
        (Printf.sprintf "site %d wrote nothing" site)
        0
        (count_records c site (fun _ -> true)))
    [ 0; 1; 2 ]

let test_2pc_subordinate_veto_aborts_everywhere () =
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("a", 1)) : int);
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Write ("b", 2)) : int);
        Data_server.veto_next (Camelot.Cluster.server c 1) tid;
        Tranman.commit tm tid)
  in
  check_aborted o;
  settle c 2000.0;
  Alcotest.(check int) "undone at coordinator" 0 (peek c 0 "a");
  Alcotest.(check int) "undone at subordinate" 0 (peek c 1 "b");
  Alcotest.(check bool) "no commit record anywhere" false
    (has_record c 0 is_commit || has_record c 1 is_commit)

let test_2pc_three_subordinates () =
  let c = quiet_cluster ~sites:4 () in
  check_committed (run_update_txn c ~origin:0 ~update_sites:[ 0; 1; 2; 3 ] ());
  settle c 3000.0;
  List.iter
    (fun site ->
      Alcotest.(check int) (Printf.sprintf "k%d" site) 1 (peek c site (Printf.sprintf "k%d" site)))
    [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "End written once acks complete" true (has_record c 0 is_end)

let test_2pc_multicast_commit () =
  let c = quiet_cluster ~sites:4 () in
  Camelot.Cluster.each_config c (fun cfg -> cfg.State.multicast <- true);
  check_committed (run_update_txn c ~origin:0 ~update_sites:[ 0; 1; 2; 3 ] ());
  settle c 3000.0;
  List.iter
    (fun site ->
      Alcotest.(check int) (Printf.sprintf "k%d" site) 1 (peek c site (Printf.sprintf "k%d" site)))
    [ 0; 1; 2; 3 ]

(* A resolved transaction parks nothing. K fault-free commits over 3
   sites at the default timeouts, then 500 ms: the last commit resolves
   everywhere and its notify period expires once, but no subordinate
   or orphan timeout is due. Every family disarms its watchdogs when it
   resolves, so what stays pending is the sites' own daemons, the same
   for any K; a watchdog that outlived its family would add pending
   events with every commit. *)
let test_resolved_txns_leave_nothing_pending () =
  let pending_after k =
    let c = Camelot.Cluster.create ~sites:3 () in
    let tm = Camelot.Cluster.tranman c 0 in
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        for _ = 1 to k do
          let tid = Tranman.begin_transaction tm in
          List.iter
            (fun site ->
              ignore
                (Camelot.Cluster.op c ~origin:0 tid ~site (Data_server.Add ("k", 1))
                  : int))
            [ 0; 1; 2 ];
          check_committed (Tranman.commit tm tid)
        done);
    settle c 500.0;
    for site = 0 to 2 do
      Alcotest.(check int)
        (Printf.sprintf "K = %d: no inquiry at site %d" k site)
        0
        (Tranman.stats (Camelot.Cluster.tranman c site)).State.n_inquiries
    done;
    Engine.pending (Camelot.Cluster.engine c)
  in
  let five = pending_after 5 in
  Alcotest.(check int) "pending events, K = 50 vs K = 5" five (pending_after 50)

let test_site_tracking_via_comm () =
  (* the commit succeeds only because the CornMan hook told the
     coordinator about site 1; verify the mechanism end to end *)
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let tid = Tranman.begin_transaction tm in
      ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Write ("k", 1)) : int);
      check_committed (Tranman.commit tm tid));
  settle c 2000.0;
  Alcotest.(check int) "remote value committed" 1 (peek c 1 "k");
  Alcotest.(check bool) "sub has prepare" true (has_record c 1 is_prepare)

(* --- non-blocking protocol ----------------------------------------- *)

let test_nb_commit_and_force_counts () =
  (* §3.3/§6: two forced log records per site *)
  let c = quiet_cluster ~sites:2 () in
  check_committed
    (run_update_txn c ~protocol:Protocol.Nonblocking ~origin:0 ~update_sites:[ 0; 1 ] ());
  settle c 2000.0;
  Alcotest.(check int) "value at sub" 1 (peek c 1 "k1");
  Alcotest.(check int) "coordinator: 2 forces (replication, commit)" 2 (forces c 0);
  Alcotest.(check int) "subordinate: 2 forces (prepare, replication)" 2 (forces c 1);
  Alcotest.(check bool) "sub replication record" true (has_record c 1 is_replication);
  Alcotest.(check bool) "coordinator replication record" true (has_record c 0 is_replication);
  Alcotest.(check bool) "coordinator prepare spooled (change 5)" true
    (has_record c 0 is_prepare)

let test_nb_three_subs () =
  let c = quiet_cluster ~sites:4 () in
  check_committed
    (run_update_txn c ~protocol:Protocol.Nonblocking ~origin:0 ~update_sites:[ 0; 1; 2; 3 ] ());
  settle c 3000.0;
  List.iter
    (fun site ->
      Alcotest.(check int) (Printf.sprintf "k%d" site) 1 (peek c site (Printf.sprintf "k%d" site)))
    [ 0; 1; 2; 3 ]

let test_nb_wholly_read_only_like_2pc () =
  (* a completely read-only transaction has 2PC's critical path: one
     message round, no log records *)
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Read "x") : int);
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Read "y") : int);
        Tranman.commit tm ~protocol:Protocol.Nonblocking tid)
  in
  check_committed o;
  settle c 1000.0;
  (* the coordinator spools its prepare record before sending the
     prepare message (change 5) — but nothing is forced anywhere, which
     is what makes the critical path equal to 2PC's *)
  Alcotest.(check int) "no forces at coordinator" 0
    (Camelot_wal.Log.forces (Camelot.Cluster.log c 0));
  Alcotest.(check int) "only the spooled prepare at coordinator" 1
    (count_records c 0 (fun _ -> true));
  Alcotest.(check int) "no records at sub" 0 (count_records c 1 (fun _ -> true))

let test_nb_veto_aborts () =
  let c = quiet_cluster ~sites:3 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Write ("b", 2)) : int);
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:2 (Data_server.Write ("c", 3)) : int);
        Data_server.veto_next (Camelot.Cluster.server c 2) tid;
        Tranman.commit tm ~protocol:Protocol.Nonblocking tid)
  in
  check_aborted o;
  settle c 2000.0;
  Alcotest.(check int) "undone at sub1" 0 (peek c 1 "b");
  Alcotest.(check int) "undone at sub2" 0 (peek c 2 "c")

let test_nb_read_only_site_not_drafted_needlessly () =
  (* 1 update sub + 1 read-only sub over 3 sites: quorum 2 is reachable
     with the coordinator and the update sub; the read-only site must
     write nothing *)
  let c = quiet_cluster ~sites:3 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Write ("w", 1)) : int);
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:2 (Data_server.Read "r") : int);
        Tranman.commit tm ~protocol:Protocol.Nonblocking tid)
  in
  check_committed o;
  settle c 2000.0;
  Alcotest.(check int) "read-only sub wrote nothing" 0 (count_records c 2 (fun _ -> true))

(* --- presumed commit (extension: Mohan & Lindsay's other variant) --- *)

let pc_cluster ~sites =
  let c = quiet_cluster ~sites () in
  Camelot.Cluster.each_config c (fun cfg ->
      cfg.State.presumption <- State.Presume_commit);
  c

let test_pc_commit_no_acks () =
  let c = pc_cluster ~sites:2 in
  check_committed (run_update_txn c ~origin:0 ~update_sites:[ 0; 1 ] ());
  settle c 2000.0;
  Alcotest.(check int) "value at sub" 1 (peek c 1 "k1");
  (* coordinator: collecting + commit forces; End immediately, no acks *)
  Alcotest.(check int) "coordinator forces 2 (collecting, commit)" 2 (forces c 0);
  Alcotest.(check bool) "collecting record" true
    (has_record c 0 (function Record.Collecting _ -> true | _ -> false));
  Alcotest.(check bool) "End without waiting for acks" true (has_record c 0 is_end);
  (* subordinate: prepare force only; its commit record is never forced *)
  Alcotest.(check int) "subordinate forces 1" 1 (forces c 1)

let test_pc_commit_fewer_messages_than_pa () =
  let sends presumption =
    let c = quiet_cluster ~sites:2 () in
    Camelot.Cluster.each_config c (fun cfg -> cfg.State.presumption <- presumption);
    check_committed (run_update_txn c ~origin:0 ~update_sites:[ 0; 1 ] ());
    settle c 3000.0;
    Camelot_net.Lan.sent (Camelot.Cluster.lan c)
  in
  let pa = sends State.Presume_abort in
  let pc = sends State.Presume_commit in
  Alcotest.(check bool)
    (Printf.sprintf "PC commit uses fewer datagrams (%d < %d)" pc pa)
    true (pc < pa)

let test_pc_abort_forced_and_acked () =
  let c = pc_cluster ~sites:2 in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("a", 1)) : int);
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Write ("b", 2)) : int);
        Data_server.veto_next (Camelot.Cluster.server c 1) tid;
        Tranman.commit tm tid)
  in
  check_aborted o;
  settle c 3000.0;
  Alcotest.(check int) "undone everywhere" 0 (peek c 0 "a" + peek c 1 "b");
  (* the abort records are forced now, and the coordinator waits for
     abort-acks before writing End *)
  Alcotest.(check bool) "coordinator abort record" true (has_record c 0 is_abort);
  Alcotest.(check bool) "coordinator End after abort acks" true (has_record c 0 is_end);
  Alcotest.(check bool) "coordinator forced the abort" true (forces c 0 >= 1)

let test_pc_forgotten_means_committed () =
  (* the presumption itself: a blocked subordinate asks about a
     transaction whose coordinator has garbage-collected the
     descriptor; under presumed commit the answer "unknown" means
     commit *)
  let c = pc_cluster ~sites:2 in
  let tm0 = Camelot.Cluster.tranman c 0 in
  let result = ref None in
  let tid_cell = ref None in
  Camelot_mach.Site.spawn (Camelot.Cluster.node c 0).Camelot.Cluster.site
    (fun () ->
      let tid = Tranman.begin_transaction tm0 in
      tid_cell := Some tid;
      ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Data_server.Write ("k", 5)) : int);
      result := Some (Tranman.commit tm0 tid));
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      (* cut the network in the window between the commit record's
         append (all votes are in) and the end of its force — the
         commit notice, sent after the force, is lost *)
      Testutil.wait_until ~what:"commit record appended" (fun () ->
          has_record c 0 is_commit);
      Camelot.Cluster.partition c [ [ 0 ]; [ 1 ] ];
      Testutil.wait_until ~what:"coordinator committed" (fun () ->
          !result = Some Protocol.Committed);
      (* the coordinator forgets immediately (no acks under PC) *)
      Tranman.forget tm0 (Option.get !tid_cell);
      Camelot.Cluster.heal c;
      (* the subordinate's inquiry gets "unknown" and presumes commit *)
      Testutil.wait_until ~what:"sub presumes commit" (fun () ->
          has_record c 1 is_commit && peek c 1 "k" = 5))

(* --- distributed nesting ------------------------------------------- *)

let test_nested_remote_child_abort () =
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let parent = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 parent ~site:1 (Data_server.Write ("p", 1)) : int);
        let child = Tranman.begin_nested tm ~parent in
        ignore (Camelot.Cluster.op c ~origin:0 child ~site:1 (Data_server.Write ("c", 2)) : int);
        Tranman.abort tm child;
        (* give the Child_finish datagram time to arrive *)
        Fiber.sleep 100.0;
        Tranman.commit tm parent)
  in
  check_committed o;
  settle c 2000.0;
  Alcotest.(check int) "parent's remote write committed" 1 (peek c 1 "p");
  Alcotest.(check int) "child's remote write undone" 0 (peek c 1 "c")

let test_nested_remote_child_commit () =
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let parent = Tranman.begin_transaction tm in
        let child = Tranman.begin_nested tm ~parent in
        ignore (Camelot.Cluster.op c ~origin:0 child ~site:1 (Data_server.Write ("c", 9)) : int);
        check_committed (Tranman.commit tm child);
        Fiber.sleep 100.0;
        Tranman.commit tm parent)
  in
  check_committed o;
  settle c 2000.0;
  Alcotest.(check int) "child's remote write committed" 9 (peek c 1 "c")

(* --- outcome markers ------------------------------------------------ *)

(* Two sites built as [Camelot.Cluster.create] builds them, except that
   the test owns the name-service directory: a probe endpoint listed as
   site 2 receives every reply a site addresses to site 2. One
   transaction from site 0 writes at both sites and commits under
   [protocol] (aborts, when [veto], by site 1's no vote); once every
   tail has run (End record, applied outcome, acks), the probe sends
   [msg tid] to each site. Returns the printed replies, sorted, and each
   site's status afterwards. *)
let ask_finished ?(veto = false) ?(paxos_f = 0) ~protocol msg =
  let model = quiet_model in
  let eng = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let lan = Camelot_net.Lan.create eng ~model ~rng:(Rng.split rng) in
  let directory = Hashtbl.create 4 in
  let config = fast_config () in
  config.State.paxos_f <- paxos_f;
  let node id =
    let site = Camelot_mach.Site.create eng ~id ~model ~rng:(Rng.split rng) in
    let log = Camelot_wal.Log.create site in
    Camelot_wal.Log.start log ~flush_every:50.0;
    let tm = Tranman.create site ~lan ~log ~directory ~config:(State.copy_config config) in
    (site, tm, Data_server.create ~name:(Printf.sprintf "s%d" id) ~tranman:tm ~log ())
  in
  let _, tm0, srv0 = node 0 in
  let site1, tm1, srv1 = node 1 in
  let probe = Camelot_mach.Site.create eng ~id:2 ~model ~rng:(Rng.split rng) in
  let replies = ref [] in
  Hashtbl.replace directory 2
    (Camelot_net.Lan.endpoint lan probe (fun m -> replies := m :: !replies));
  let tid =
    Fiber.run eng (fun () ->
        let tid = Tranman.begin_transaction tm0 in
        ignore
          (Comm.call_local tm0 ~tid (fun () ->
               Data_server.execute srv0 tid (Data_server.Write ("a", 1)))
            : int);
        ignore
          (Comm.call_remote ~origin:tm0 ~tid ~server_site:site1 (fun () ->
               Data_server.execute srv1 tid (Data_server.Write ("b", 2)))
            : int);
        if veto then Data_server.veto_next srv1 tid;
        ignore (Tranman.commit tm0 ~protocol tid : Protocol.outcome);
        tid)
  in
  Engine.run ~until:(Engine.now eng +. 2000.0) eng;
  List.iter
    (fun dst ->
      Camelot_net.Lan.send lan ~src:probe (Hashtbl.find directory dst) (msg tid))
    [ 0; 1 ];
  Engine.run ~until:(Engine.now eng +. 2000.0) eng;
  ( List.sort compare (List.map (Format.asprintf "%a" Protocol.pp) !replies),
    List.map
      (fun tm -> Format.asprintf "%a" Protocol.pp_status (Tranman.status tm tid))
      [ tm0; tm1 ] )

let prepare protocol tid =
  Protocol.Prepare
    {
      m_tid = tid;
      m_coordinator = 2;
      m_protocol = protocol;
      m_sites = [ 0; 1 ];
      m_commit_quorum = (if protocol = Protocol.Nonblocking then 2 else 0);
      m_acceptors = [];
    }

let outcome ?(o = Protocol.Committed) protocol tid =
  Protocol.Outcome { m_tid = tid; m_from = 2; m_outcome = o; m_protocol = protocol }

let inquiry tid = Protocol.Inquiry { m_tid = tid; m_from = 2 }

(* Each row: what the probe sends both sites of a finished transaction,
   and the replies and statuses it gets. A resolved family answers from
   its marker, or, for a message that writes the family (a prepare, a
   replication, an abort-quorum request), from the record rebuilt from
   it. The expected values were recorded at the parent commit, where
   every resolved family kept its whole record. *)
let check_rows name ?veto protocol rows =
  List.iter
    (fun (what, msg, want_replies, want_status) ->
      let replies, status = ask_finished ?veto ~protocol msg in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: replies to %s" name what)
        want_replies replies;
      Alcotest.(check (list string))
        (Printf.sprintf "%s: statuses after %s" name what)
        want_status status)
    rows

let committed = [ "committed"; "committed" ]
let status_replies s = [ "Status(T0.0 from=0 " ^ s ^ ")"; "Status(T0.0 from=1 " ^ s ^ ")" ]
let acks = [ "OutcomeAck(T0.0 from=0)"; "OutcomeAck(T0.0 from=1)" ]

let test_markers_2pc () =
  let p = Protocol.Two_phase in
  check_rows "2PC" p
    [
      ("prepare", prepare p, status_replies "committed", committed);
      ("outcome", outcome p, acks, committed);
      ("inquiry", inquiry, status_replies "committed", committed);
    ];
  let aborted = [ "aborted"; "aborted" ] in
  check_rows "2PC aborted" ~veto:true p
    [
      ( "prepare",
        prepare p,
        [ "Vote(T0.0 from=0 no)"; "Vote(T0.0 from=1 no)" ],
        aborted );
      ("outcome", outcome ~o:Protocol.Aborted p, [], aborted);
      ("inquiry", inquiry, status_replies "aborted", aborted);
    ]

let test_markers_short_commit () =
  let p = Protocol.Short_commit in
  check_rows "short-commit" p
    [
      ("prepare", prepare p, status_replies "committed", committed);
      (* presumed commit: a commit notice is never acknowledged *)
      ("outcome", outcome p, [], committed);
      ("inquiry", inquiry, status_replies "committed", committed);
    ]

let test_markers_nonblocking () =
  let p = Protocol.Nonblocking in
  check_rows "non-blocking" p
    [
      ("prepare", prepare p, status_replies "committed", committed);
      ("outcome", outcome p, acks, committed);
      ("inquiry", inquiry, status_replies "committed", committed);
      ( "replicate",
        (fun tid ->
          Protocol.Replicate
            { m_tid = tid; m_coordinator = 2; m_sites = [ 0; 1 ]; m_update_sites = [ 0; 1 ] }),
        [ "ReplicateAck(T0.0 from=0)"; "ReplicateAck(T0.0 from=1)" ],
        committed );
      ( "join-abort-quorum",
        (fun tid -> Protocol.Join_abort_quorum { m_tid = tid; m_from = 2 }),
        [ "Refused(T0.0 from=0 ok=false)"; "Refused(T0.0 from=1 ok=false)" ],
        committed );
    ]

(* Paxos Commit families keep their record: with F = 1 both sites are
   acceptors, and a recovery leader asking for a higher ballot after the
   commit must still learn both instances' accepted yes votes. *)
let test_paxos_acceptor_kept () =
  let replies, status =
    ask_finished ~paxos_f:1 ~protocol:Protocol.Paxos_commit (fun tid ->
        Protocol.Paxos_prepare { m_tid = tid; m_from = 2; m_ballot = 5000 })
  in
  Alcotest.(check (list string))
    "promises carry both accepted votes"
    [ "PaxosPromise(T0.0 from=0 b=5000 n=2)"; "PaxosPromise(T0.0 from=1 b=5000 n=2)" ]
    replies;
  Alcotest.(check (list string)) "statuses" committed status

let () =
  Alcotest.run "camelot_distributed"
    [
      ( "two_phase",
        [
          Alcotest.test_case "commit across sites" `Quick test_2pc_commit_both_sites;
          Alcotest.test_case "force counts per variant (§3.2)" `Quick
            test_2pc_force_counts_by_variant;
          Alcotest.test_case "optimized drops locks early" `Quick
            test_2pc_optimized_locks_drop_before_durable;
          Alcotest.test_case "read-only sub skipped" `Quick test_2pc_read_only_subordinate_skipped;
          Alcotest.test_case "wholly read-only writes nothing" `Quick test_2pc_wholly_read_only;
          Alcotest.test_case "subordinate veto aborts" `Quick
            test_2pc_subordinate_veto_aborts_everywhere;
          Alcotest.test_case "three subordinates" `Quick test_2pc_three_subordinates;
          Alcotest.test_case "multicast fan-out" `Quick test_2pc_multicast_commit;
          Alcotest.test_case "CornMan site tracking" `Quick test_site_tracking_via_comm;
          Alcotest.test_case "resolved commits leave nothing pending" `Quick
            test_resolved_txns_leave_nothing_pending;
        ] );
      ( "nonblocking",
        [
          Alcotest.test_case "commit; 2 forces per site (§3.3)" `Quick
            test_nb_commit_and_force_counts;
          Alcotest.test_case "three subordinates" `Quick test_nb_three_subs;
          Alcotest.test_case "wholly read-only like 2PC" `Quick test_nb_wholly_read_only_like_2pc;
          Alcotest.test_case "veto aborts" `Quick test_nb_veto_aborts;
          Alcotest.test_case "read-only site not drafted needlessly" `Quick
            test_nb_read_only_site_not_drafted_needlessly;
        ] );
      ( "presumed_commit",
        [
          Alcotest.test_case "commit needs no acks" `Quick test_pc_commit_no_acks;
          Alcotest.test_case "fewer messages than presumed abort" `Quick
            test_pc_commit_fewer_messages_than_pa;
          Alcotest.test_case "abort forced and acknowledged" `Quick
            test_pc_abort_forced_and_acked;
          Alcotest.test_case "forgotten means committed" `Quick
            test_pc_forgotten_means_committed;
        ] );
      ( "nested_distributed",
        [
          Alcotest.test_case "remote child abort" `Quick test_nested_remote_child_abort;
          Alcotest.test_case "remote child commit" `Quick test_nested_remote_child_commit;
        ] );
      ( "outcome_markers",
        [
          Alcotest.test_case "2PC markers answer as records did" `Quick test_markers_2pc;
          Alcotest.test_case "short-commit markers answer as records did" `Quick
            test_markers_short_commit;
          Alcotest.test_case "non-blocking markers answer as records did" `Quick
            test_markers_nonblocking;
          Alcotest.test_case "Paxos acceptor record kept" `Quick test_paxos_acceptor_kept;
        ] );
    ]
