(* Unit tests for the core types: transaction identifiers (nesting
   algebra), log records, protocol messages. *)

open Camelot_core

let tid_testable = Alcotest.testable Tid.pp Tid.equal

let root0 = Tid.root ~origin:3 ~seq:7

let test_root_properties () =
  Alcotest.(check bool) "top" true (Tid.is_top root0);
  Alcotest.(check int) "depth 0" 0 (Tid.depth root0);
  Alcotest.(check int) "origin" 3 (Tid.origin root0);
  Alcotest.(check (pair int int)) "family" (3, 7) (Tid.family root0);
  Alcotest.(check (option tid_testable)) "no parent" None (Tid.parent root0)

let test_child_parent_roundtrip () =
  let c = Tid.child root0 ~n:2 in
  Alcotest.(check bool) "not top" false (Tid.is_top c);
  Alcotest.(check int) "depth 1" 1 (Tid.depth c);
  Alcotest.(check (option tid_testable)) "parent is root" (Some root0) (Tid.parent c);
  let gc = Tid.child c ~n:0 in
  Alcotest.(check int) "depth 2" 2 (Tid.depth gc);
  Alcotest.(check (option tid_testable)) "grandchild's parent" (Some c) (Tid.parent gc);
  Alcotest.(check tid_testable) "top of grandchild" root0 (Tid.top gc)

let test_ancestry () =
  let c1 = Tid.child root0 ~n:1 in
  let c2 = Tid.child root0 ~n:2 in
  let gc = Tid.child c1 ~n:0 in
  Alcotest.(check bool) "reflexive" true (Tid.is_ancestor root0 root0);
  Alcotest.(check bool) "root over child" true (Tid.is_ancestor root0 c1);
  Alcotest.(check bool) "root over grandchild" true (Tid.is_ancestor root0 gc);
  Alcotest.(check bool) "child over grandchild" true (Tid.is_ancestor c1 gc);
  Alcotest.(check bool) "not between siblings" false (Tid.is_ancestor c1 c2);
  Alcotest.(check bool) "not upward" false (Tid.is_ancestor gc c1);
  let other = Tid.root ~origin:3 ~seq:8 in
  Alcotest.(check bool) "not across families" false (Tid.is_ancestor other c1)

let test_to_string () =
  let gc = Tid.child (Tid.child root0 ~n:1) ~n:4 in
  Alcotest.(check string) "rendering" "T3.7/1/4" (Tid.to_string gc);
  Alcotest.(check string) "root rendering" "T3.7" (Tid.to_string root0)

let test_compare_total_order () =
  let a = Tid.root ~origin:1 ~seq:1 in
  let b = Tid.root ~origin:1 ~seq:2 in
  let c = Tid.child a ~n:0 in
  Alcotest.(check bool) "family order" true (Tid.compare a b < 0);
  Alcotest.(check bool) "parent before child" true (Tid.compare a c < 0);
  Alcotest.(check int) "equal" 0 (Tid.compare a (Tid.root ~origin:1 ~seq:1))

let test_child_negative_rejected () =
  Alcotest.check_raises "negative child" (Invalid_argument "Tid.child: negative index")
    (fun () -> ignore (Tid.child root0 ~n:(-1) : Tid.t))

let prop_ancestry_transitive =
  QCheck.Test.make ~name:"ancestry transitive along paths" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 0 4) (int_bound 3))
              (list_of_size Gen.(int_range 0 3) (int_bound 3)))
    (fun (p1, p2) ->
      let base = List.fold_left (fun t n -> Tid.child t ~n) root0 p1 in
      let deeper = List.fold_left (fun t n -> Tid.child t ~n) base p2 in
      Tid.is_ancestor base deeper && Tid.is_ancestor root0 deeper)

let prop_parent_inverts_child =
  QCheck.Test.make ~name:"parent inverts child" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 0 4) (int_bound 3)) (int_bound 5))
    (fun (path, n) ->
      let t = List.fold_left (fun t n -> Tid.child t ~n) root0 path in
      match Tid.parent (Tid.child t ~n) with
      | Some p -> Tid.equal p t
      | None -> false)

(* --- records / protocol ------------------------------------------- *)

let test_record_tid () =
  let u =
    Record.Update
      { u_tid = root0; u_server = "s"; u_key = "k"; u_old = 1; u_new = 2 }
  in
  Alcotest.(check tid_testable) "update tid" root0 (Record.tid u);
  let c = Record.Commit { c_tid = root0; c_sites = [ 1; 2 ] } in
  Alcotest.(check tid_testable) "commit tid" root0 (Record.tid c);
  let p =
    Record.Prepare
      {
        p_tid = root0;
        p_coordinator = 0;
        p_protocol = Protocol.Nonblocking;
        p_sites = [ 0; 1 ];
        p_acceptors = [];
      }
  in
  Alcotest.(check tid_testable) "prepare tid" root0 (Record.tid p)

let test_protocol_tid_and_pp () =
  let msgs =
    [
      Protocol.Prepare
        {
          m_tid = root0;
          m_coordinator = 0;
          m_protocol = Protocol.Two_phase;
          m_sites = [ 1 ];
          m_commit_quorum = 0;
          m_acceptors = [];
        };
      Protocol.Vote { m_tid = root0; m_from = 1; m_vote = Protocol.Vote_yes { read_only = false } };
      Protocol.Outcome
        {
          m_tid = root0;
          m_from = 0;
          m_outcome = Protocol.Committed;
          m_protocol = Protocol.Two_phase;
        };
      Protocol.Inquiry { m_tid = root0; m_from = 2 };
      Protocol.Status { m_tid = root0; m_from = 2; m_status = Protocol.St_prepared };
      Protocol.Child_finish { m_tid = root0; m_outcome = Protocol.Aborted };
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check tid_testable) "tid extraction" root0 (Protocol.tid m);
      Alcotest.(check bool) "pp non-empty" true
        (String.length (Format.asprintf "%a" Protocol.pp m) > 0))
    msgs

let test_config_copy_independent () =
  let base = State.default_config () in
  let copy = State.copy_config base in
  copy.State.multicast <- true;
  Alcotest.(check bool) "original untouched" false base.State.multicast

(* --- tracing ------------------------------------------------------- *)

(* Per-transaction trace lines sit behind [State.tracing], so a
   disabled trace costs one branch. Enabled, a distributed commit still
   records its multicast and, once every ack is in, its "forgotten"
   line. *)
let test_traced_commit_records_guarded_lines () =
  let c = Testutil.quiet_cluster ~sites:3 () in
  Camelot.Cluster.each_config c (fun cfg -> cfg.State.multicast <- true);
  let tm = Camelot.Cluster.tranman c 0 in
  Camelot_sim.Trace.set_enabled (Tranman.trace tm) true;
  let o =
    Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let tid = Tranman.begin_transaction tm in
        List.iter
          (fun site ->
            ignore
              (Camelot.Cluster.op c ~origin:0 tid ~site
                 (Camelot_server.Data_server.Write ("k", 1))
                : int))
          [ 0; 1; 2 ];
        Tranman.commit tm tid)
  in
  Testutil.check_committed o;
  Testutil.settle c 3000.0;
  let messages =
    List.map
      (fun r -> r.Camelot_sim.Trace.message)
      (Camelot_sim.Trace.dump (Tranman.trace tm))
  in
  let recorded what p =
    Alcotest.(check bool) what true (List.exists p messages)
  in
  recorded "multicast line"
    (String.starts_with ~prefix:"multicast -> [2,1]: Prepare(");
  recorded "forgotten line" (String.ends_with ~suffix:"-acks in; forgotten")

(* --- static analysis (Table 3 / §4.3 formulas) --------------------- *)

let rt = Camelot_mach.Cost_model.rt

let path_total p = p.Camelot_analysis.Static.total

let test_static_table3_anchors () =
  let open Camelot_analysis.Static in
  let completion w = completion_path rt ~protocol:Protocol.Two_phase w in
  Alcotest.(check (float 1e-9)) "local update = 24.5 (paper)" 24.5
    (path_total (completion { subordinates = 0; update = true }));
  Alcotest.(check (float 1e-9)) "local read = 9.5 (paper)" 9.5
    (path_total (completion { subordinates = 0; update = false }));
  let one_sub = path_total (completion { subordinates = 1; update = true }) in
  Alcotest.(check bool)
    (Printf.sprintf "1-sub update near paper's 99.5 (%.1f)" one_sub)
    true
    (one_sub > 85.0 && one_sub < 105.0)

let test_static_force_datagram_counts () =
  let open Camelot_analysis.Static in
  let w = { subordinates = 1; update = true } in
  let cp2 = critical_path rt ~protocol:Protocol.Two_phase w in
  let cpn = critical_path rt ~protocol:Protocol.Nonblocking w in
  Alcotest.(check (pair int int)) "2PC: 2 LF, 3 DG" (2, 3) (forces cp2, datagrams cp2);
  Alcotest.(check (pair int int)) "NB: 4 LF, 5 DG" (4, 5) (forces cpn, datagrams cpn)

let test_static_critical_exceeds_completion () =
  let open Camelot_analysis.Static in
  List.iter
    (fun protocol ->
      List.iter
        (fun w ->
          let c = path_total (completion_path rt ~protocol w) in
          let k = path_total (critical_path rt ~protocol w) in
          Alcotest.(check bool) "critical > completion" true (k > c))
        [
          { subordinates = 0; update = true };
          { subordinates = 2; update = true };
          { subordinates = 1; update = false };
        ])
    [ Protocol.Two_phase; Protocol.Nonblocking ]

let test_static_nb_read_equals_2pc_read () =
  let open Camelot_analysis.Static in
  let w = { subordinates = 2; update = false } in
  Alcotest.(check (float 1e-9)) "read paths identical (§3.3)"
    (path_total (completion_path rt ~protocol:Protocol.Two_phase w))
    (path_total (completion_path rt ~protocol:Protocol.Nonblocking w))

let test_static_reads_have_no_forces () =
  let open Camelot_analysis.Static in
  List.iter
    (fun protocol ->
      let p = critical_path rt ~protocol { subordinates = 3; update = false } in
      Alcotest.(check int) "no forces on read path" 0 (forces p))
    [ Protocol.Two_phase; Protocol.Nonblocking ]

let prop_static_monotone_in_subordinates =
  QCheck.Test.make ~name:"static paths monotone in subordinates" ~count:50
    QCheck.(pair (int_range 0 5) bool)
    (fun (subs, update) ->
      let open Camelot_analysis.Static in
      let total protocol n = path_total (completion_path rt ~protocol { subordinates = n; update }) in
      total Protocol.Two_phase subs <= total Protocol.Two_phase (subs + 1)
      && total Protocol.Nonblocking subs <= total Protocol.Nonblocking (subs + 1))

let prop_static_nb_geq_2pc =
  QCheck.Test.make ~name:"non-blocking never cheaper than 2PC" ~count:50
    QCheck.(pair (int_range 0 5) bool)
    (fun (subs, update) ->
      let open Camelot_analysis.Static in
      let w = { subordinates = subs; update } in
      path_total (completion_path rt ~protocol:Protocol.Nonblocking w)
      >= path_total (completion_path rt ~protocol:Protocol.Two_phase w))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "camelot_core_units"
    [
      ( "tid",
        [
          Alcotest.test_case "root properties" `Quick test_root_properties;
          Alcotest.test_case "child/parent roundtrip" `Quick test_child_parent_roundtrip;
          Alcotest.test_case "ancestry" `Quick test_ancestry;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "total order" `Quick test_compare_total_order;
          Alcotest.test_case "negative child rejected" `Quick test_child_negative_rejected;
        ]
        @ qcheck [ prop_ancestry_transitive; prop_parent_inverts_child ] );
      ( "records",
        [
          Alcotest.test_case "record tid extraction" `Quick test_record_tid;
          Alcotest.test_case "protocol tid and printing" `Quick test_protocol_tid_and_pp;
          Alcotest.test_case "config copies are independent" `Quick test_config_copy_independent;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "traced distributed commit records guarded lines" `Quick
            test_traced_commit_records_guarded_lines;
        ] );
      ( "static_analysis",
        [
          Alcotest.test_case "Table 3 anchors" `Quick test_static_table3_anchors;
          Alcotest.test_case "force/datagram counts (§4.3)" `Quick
            test_static_force_datagram_counts;
          Alcotest.test_case "critical exceeds completion" `Quick
            test_static_critical_exceeds_completion;
          Alcotest.test_case "NB read = 2PC read" `Quick test_static_nb_read_equals_2pc_read;
          Alcotest.test_case "reads force nothing" `Quick test_static_reads_have_no_forces;
        ]
        @ qcheck [ prop_static_monotone_in_subordinates; prop_static_nb_geq_2pc ] );
    ]
