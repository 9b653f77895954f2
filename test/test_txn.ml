(* Integration tests: single-site transactions and Moss-model nesting
   semantics through the full stack (application -> CornMan -> server ->
   TranMan -> log). *)

open Camelot_sim
open Camelot_core
open Camelot_server
open Testutil

let run_txn c ?protocol ~origin body =
  let tm = Camelot.Cluster.tranman c origin in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let tid = Tranman.begin_transaction tm in
      body tid;
      Tranman.commit tm ?protocol tid)

let test_local_update_commit () =
  let c = quiet_cluster ~sites:1 () in
  let o =
    run_txn c ~origin:0 (fun tid ->
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("x", 42)) : int))
  in
  check_committed o;
  settle c 100.0;
  Alcotest.(check int) "value committed" 42 (peek c 0 "x");
  Alcotest.(check int) "one disk write (Figure 1: single force)" 1
    (Camelot_wal.Log.disk_writes (Camelot.Cluster.log c 0));
  Alcotest.(check bool) "commit record" true (has_record c 0 is_commit);
  Alcotest.(check bool) "update record" true (has_record c 0 is_update)

let test_local_read_only_no_log () =
  let c = quiet_cluster ~sites:1 () in
  let o =
    run_txn c ~origin:0 (fun tid ->
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Read "x") : int))
  in
  check_committed o;
  settle c 100.0;
  Alcotest.(check int) "no log records" 0 (count_records c 0 (fun _ -> true));
  Alcotest.(check int) "no forces" 0 (Camelot_wal.Log.forces (Camelot.Cluster.log c 0))

let test_read_only_opt_disabled_still_commits () =
  let c = quiet_cluster ~sites:1 () in
  (Camelot.Cluster.config c 0).State.read_only_optimization <- false;
  let o =
    run_txn c ~origin:0 (fun tid ->
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Read "x") : int))
  in
  check_committed o;
  Alcotest.(check bool) "commit record written" true (has_record c 0 is_commit)

let test_abort_restores_value () =
  let c = quiet_cluster ~sites:1 () in
  let o1 =
    run_txn c ~origin:0 (fun tid ->
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("x", 10)) : int))
  in
  check_committed o1;
  let tm = Camelot.Cluster.tranman c 0 in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let tid = Tranman.begin_transaction tm in
      ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("x", 99)) : int);
      Tranman.abort tm tid;
      (* a local transaction is forgotten as it resolves *)
      Alcotest.(check (option outcome_testable))
        "outcome forgotten" None (Tranman.outcome tm tid);
      Alcotest.check status_testable "unknown after abort" Protocol.St_unknown
        (Tranman.status tm tid);
      Tranman.abort tm tid);
  settle c 100.0;
  Alcotest.(check int) "value restored" 10 (peek c 0 "x");
  Alcotest.(check bool) "abort record spooled" true (has_record c 0 is_abort)

let test_server_veto_aborts () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("x", 5)) : int);
        Data_server.veto_next (Camelot.Cluster.server c 0) tid;
        Tranman.commit tm tid)
  in
  check_aborted o;
  settle c 50.0;
  Alcotest.(check int) "undone" 0 (peek c 0 "x")

let test_two_servers_one_force () =
  (* the TranMan as gathering point for log writes: two servers on one
     site still cost a single force *)
  let c = quiet_cluster ~sites:1 ~servers_per_site:2 () in
  let o =
    run_txn c ~origin:0 (fun tid ->
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 ~index:0 (Data_server.Write ("a", 1)) : int);
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 ~index:1 (Data_server.Write ("b", 2)) : int))
  in
  check_committed o;
  Alcotest.(check int) "one force for both servers" 1
    (Camelot_wal.Log.forces (Camelot.Cluster.log c 0))

let test_serialization_under_contention () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let eng = Camelot.Cluster.engine c in
  let results = ref [] in
  for _ = 1 to 2 do
    Fiber.spawn eng (fun () ->
        let tid = Tranman.begin_transaction tm in
        (* exclusive read-modify-write: the second transaction queues on
           the first one's lock until its locks drop at commit *)
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Add ("x", 1)) : int);
        results := Tranman.commit tm tid :: !results)
  done;
  settle c 5000.0;
  Alcotest.(check int) "both committed" 2
    (List.length (List.filter (fun o -> o = Protocol.Committed) !results));
  Alcotest.(check int) "serialized increments" 2 (peek c 0 "x")

let test_locks_released_after_commit () =
  let c = quiet_cluster ~sites:1 () in
  let o =
    run_txn c ~origin:0 (fun tid ->
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("x", 1)) : int))
  in
  check_committed o;
  settle c 100.0;
  Alcotest.(check int) "no holders left" 0
    (List.length
       (Camelot_lock.Lock_table.holders
          (Data_server.locks (Camelot.Cluster.server c 0))
          ~key:"x"))

let test_unknown_tid_raises () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let bogus = Tid.root ~origin:0 ~seq:999 in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      match Tranman.commit tm bogus with
      | (_ : Protocol.outcome) -> Alcotest.fail "expected Unknown_transaction"
      | exception Tranman.Unknown_transaction t ->
          Alcotest.(check bool) "names the tid" true (Tid.equal t bogus))

let test_forget_gc () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let tid = Tranman.begin_transaction tm in
      ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("x", 1)) : int);
      (* forgetting an unresolved transaction is refused *)
      Tranman.forget tm tid;
      Alcotest.check status_testable "still known while active" Protocol.St_active
        (Tranman.status tm tid);
      check_committed (Tranman.commit tm tid);
      Tranman.forget tm tid;
      Alcotest.check status_testable "unknown after GC" Protocol.St_unknown
        (Tranman.status tm tid);
      Alcotest.(check (option outcome_testable)) "outcome gone" None
        (Tranman.outcome tm tid))

(* A local transaction is forgotten once its commit returns, so a
   second commit names an unknown transaction. A distributed one keeps
   its tombstone, and committing it again answers the outcome. *)
let test_commit_idempotent () =
  let c = quiet_cluster ~sites:2 () in
  let tm = Camelot.Cluster.tranman c 0 in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let local = Tranman.begin_transaction tm in
      ignore (Camelot.Cluster.op c ~origin:0 local ~site:0 (Data_server.Write ("x", 1)) : int);
      check_committed (Tranman.commit tm local);
      (match Tranman.commit tm local with
      | (_ : Protocol.outcome) -> Alcotest.fail "expected Unknown_transaction"
      | exception Tranman.Unknown_transaction t ->
          Alcotest.(check bool) "names the tid" true (Tid.equal t local));
      let dist = Tranman.begin_transaction tm in
      ignore (Camelot.Cluster.op c ~origin:0 dist ~site:0 (Data_server.Write ("x", 2)) : int);
      ignore (Camelot.Cluster.op c ~origin:0 dist ~site:1 (Data_server.Write ("y", 2)) : int);
      let o1 = Tranman.commit tm dist in
      let o2 = Tranman.commit tm dist in
      check_committed o1;
      check_committed o2)

(* Retained words per transaction in a 1-site cluster: what each
   finished transaction costs for good. The [run]s commit on one key,
   so the data server, its lock table and the log's record array reach
   their steady size in the warm-up. *)
let retained_per_txn ~op =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let run n =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        for _ = 1 to n do
          let tid = Tranman.begin_transaction tm in
          ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 op : int);
          check_committed (Tranman.commit tm tid)
        done);
    settle c 100.0
  in
  run 100;
  let n = 2_000 in
  let before = Obj.reachable_words (Obj.repr c) in
  run n;
  float_of_int (Obj.reachable_words (Obj.repr c) - before) /. float_of_int n

(* A read-only local transaction writes no log record, and its family
   is forgotten as it commits, so it leaves nothing: 0.00 words today.
   A kept tombstone (38 words) or any word a change makes it keep fails
   here. *)
let test_retained_per_read_only_txn () =
  let per_txn = retained_per_txn ~op:(Data_server.Read "x") in
  if per_txn > 0.5 then
    Alcotest.failf "%.2f retained words per transaction, budget 0.5" per_txn

(* A local update transaction keeps only its two log records: 17.97
   words today. The update record (6) and its constructor box (2), the
   commit record (3), the root identifier both name (3), and two slots
   of the log's doubling array with their share of its spare capacity
   (4). The budget sits about 10% above; a kept tombstone would add
   some 35 more. *)
let test_retained_per_local_update_txn () =
  let per_txn = retained_per_txn ~op:(Data_server.Write ("x", 1)) in
  if per_txn > 19.8 then
    Alcotest.failf "%.2f retained words per transaction, budget 19.8" per_txn

(* Only a family no remote site joined is forgotten. A 2PC coordinator
   keeps its answer: a subordinate whose outcome notice was lost
   inquires after the commit and must hear "committed", or presumed
   abort would undo its half. The subordinate keeps its own, which
   answers a duplicate prepare. Each answer outlives the record, as an
   outcome marker. *)
let test_distributed_keeps_tombstones () =
  let c = quiet_cluster ~sites:2 () in
  (* no outcome retransmission in the window: only the inquiry can
     tell the subordinate *)
  (Camelot.Cluster.config c 0).State.outcome_retry_ms <- 60_000.0;
  let tm0 = Camelot.Cluster.tranman c 0 in
  let tm1 = Camelot.Cluster.tranman c 1 in
  let tid = ref None and result = ref None in
  Camelot_mach.Site.spawn (Camelot.Cluster.node c 0).Camelot.Cluster.site
    (fun () ->
      let t = Tranman.begin_transaction tm0 in
      tid := Some t;
      ignore (Camelot.Cluster.op c ~origin:0 t ~site:1 (Data_server.Write ("k", 5)) : int);
      result := Some (Tranman.commit tm0 t));
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      (* lose the commit notice: cut the link while the commit record
         is being forced *)
      wait_until ~what:"commit record appended" (fun () -> has_record c 0 is_commit);
      Camelot.Cluster.partition c [ [ 0 ]; [ 1 ] ];
      wait_until ~what:"coordinator committed" (fun () ->
          !result = Some Protocol.Committed);
      let t = Option.get !tid in
      Alcotest.check status_testable "coordinator remembers" Protocol.St_committed
        (Tranman.status tm0 t);
      Fiber.sleep 1_000.0;
      Camelot.Cluster.heal c;
      wait_until ~what:"inquiry answered committed" (fun () ->
          has_record c 1 is_commit && peek c 1 "k" = 5);
      Alcotest.check status_testable "subordinate remembers" Protocol.St_committed
        (Tranman.status tm1 t);
      Alcotest.(check (option outcome_testable))
        "coordinator outcome" (Some Protocol.Committed) (Tranman.outcome tm0 t))

(* Words a resolved 2-site 2PC transaction leaves in the cluster,
   counted over both TranMan states (which reach their logs, servers
   and each other), per transaction of a run of [n] that applies [op]
   to one key at each site. The warm-up sizes the lock tables and
   values; the settle outlasts the 10 s orphan timeout, so no disarmed
   watchdog is still queued. *)
let retained_per_2pc_txn ~op n =
  let c = quiet_cluster ~sites:2 () in
  let tm0 = Camelot.Cluster.tranman c 0 in
  let tm1 = Camelot.Cluster.tranman c 1 in
  let run n =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        for _ = 1 to n do
          let tid = Tranman.begin_transaction tm0 in
          ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (op "x") : int);
          ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (op "y") : int);
          check_committed (Tranman.commit tm0 tid)
        done);
    settle c 12_000.0
  in
  run 100;
  let words () = Obj.reachable_words (Obj.repr (tm0, tm1)) in
  let before = words () in
  run n;
  float_of_int (words () - before) /. float_of_int n

(* Once both sites are done, each family is its outcome marker, so a
   transaction keeps its six log records and two table cells: 56.66
   words today, against 119.66 when each site kept the whole family
   record. The budget sits about 10% above. The figure stays flat as
   the run doubles (56.95 over 4000): what a transaction keeps does not
   grow with the run's length. *)
let write key = Data_server.Write (key, 1)

let test_retained_per_2pc_txn () =
  let per_txn = retained_per_2pc_txn ~op:write 2_000 in
  if per_txn > 62.3 then
    Alcotest.failf "%.2f retained words per transaction, budget 62.3" per_txn;
  let doubled = retained_per_2pc_txn ~op:write 4_000 in
  if Float.abs ((doubled /. per_txn) -. 1.0) > 0.05 then
    Alcotest.failf "%.2f words per transaction over 4000, %.2f over 2000: not flat"
      doubled per_txn

(* A wholly read-only 2PC transaction logs nothing and runs no second
   phase, so its coordinator keeps only its outcome marker: 48.18
   words today, 82.18 when the coordinator kept its whole record. The
   subordinate's read-only vote still keeps its record (about 43 words:
   it never resolves). The budget sits about 10% above. *)
let test_retained_per_read_only_2pc_txn () =
  let per_txn = retained_per_2pc_txn ~op:(fun key -> Data_server.Read key) 2_000 in
  if per_txn > 53.0 then
    Alcotest.failf "%.2f retained words per transaction, budget 53.0" per_txn

(* Forgetting is volatile only: a local commit forgotten as it
   resolved is redone from the log when its site crashes and restarts
   (AC2). Restart rebuilds each family from its log records and then
   keeps only its outcome marker, through which status and outcome
   answer. *)
let test_forgotten_commit_redone () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let n = 200 in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let commit_x v =
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("x", v)) : int);
        check_committed (Tranman.commit tm tid);
        tid
      in
      let first = commit_x 1 in
      for v = 2 to n - 1 do ignore (commit_x v : Tid.t) done;
      let tid = commit_x 7 in
      Alcotest.check status_testable "forgotten" Protocol.St_unknown
        (Tranman.status tm tid);
      let words () = Obj.reachable_words (Obj.repr tm) in
      let before = words () in
      Camelot.Cluster.crash_site c 0;
      Fiber.sleep 100.0;
      ignore (Camelot.Cluster.restart_site c 0 : Tid.t list);
      (* a marker's table cell and bucket share: 4.04 words per
         recovered family today, 33.72 when restart kept every record;
         the budget sits about 10% above *)
      let per_txn = float_of_int (words () - before) /. float_of_int n in
      if per_txn > 4.5 then
        Alcotest.failf "restart keeps %.2f words per recovered family, budget 4.5" per_txn;
      Alcotest.check status_testable "marker answers committed" Protocol.St_committed
        (Tranman.status tm tid);
      Alcotest.(check (option outcome_testable))
        "marker answers the outcome" (Some Protocol.Committed) (Tranman.outcome tm first));
  Alcotest.(check int) "value redone" 7 (peek c 0 "x")

(* --- nesting ------------------------------------------------------- *)

let test_nested_commit_into_parent () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let parent = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 parent ~site:0 (Data_server.Write ("p", 1)) : int);
        let child = Tranman.begin_nested tm ~parent in
        ignore (Camelot.Cluster.op c ~origin:0 child ~site:0 (Data_server.Write ("c", 2)) : int);
        check_committed (Tranman.commit tm child);
        Tranman.commit tm parent)
  in
  check_committed o;
  settle c 100.0;
  Alcotest.(check (pair int int)) "both values" (1, 2) (peek c 0 "p", peek c 0 "c")

let test_nested_abort_partial_undo () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let parent = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 parent ~site:0 (Data_server.Write ("p", 1)) : int);
        let child = Tranman.begin_nested tm ~parent in
        ignore (Camelot.Cluster.op c ~origin:0 child ~site:0 (Data_server.Write ("c", 2)) : int);
        Tranman.abort tm child;
        Tranman.commit tm parent)
  in
  check_committed o;
  settle c 100.0;
  Alcotest.(check int) "parent's value survives" 1 (peek c 0 "p");
  Alcotest.(check int) "child's value undone" 0 (peek c 0 "c")

let test_parent_abort_undoes_committed_child () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let parent = Tranman.begin_transaction tm in
      let child = Tranman.begin_nested tm ~parent in
      ignore (Camelot.Cluster.op c ~origin:0 child ~site:0 (Data_server.Write ("c", 7)) : int);
      check_committed (Tranman.commit tm child);
      Tranman.abort tm parent);
  settle c 100.0;
  Alcotest.(check int) "child's effect undone with parent" 0 (peek c 0 "c")

let test_child_lock_antiinheritance () =
  (* child1 writes k and commits; child2 (sibling) must then be able to
     write k because the lock passed to the parent, their common
     ancestor *)
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let parent = Tranman.begin_transaction tm in
        let child1 = Tranman.begin_nested tm ~parent in
        ignore (Camelot.Cluster.op c ~origin:0 child1 ~site:0 (Data_server.Write ("k", 1)) : int);
        check_committed (Tranman.commit tm child1);
        let child2 = Tranman.begin_nested tm ~parent in
        ignore (Camelot.Cluster.op c ~origin:0 child2 ~site:0 (Data_server.Add ("k", 10)) : int);
        check_committed (Tranman.commit tm child2);
        Tranman.commit tm parent)
  in
  check_committed o;
  settle c 100.0;
  Alcotest.(check int) "both children's writes" 11 (peek c 0 "k")

let test_sibling_lock_conflict_until_subcommit () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let parent = Tranman.begin_transaction tm in
      let child1 = Tranman.begin_nested tm ~parent in
      let child2 = Tranman.begin_nested tm ~parent in
      ignore (Camelot.Cluster.op c ~origin:0 child1 ~site:0 (Data_server.Write ("k", 1)) : int);
      (* child2 cannot take the sibling's lock *)
      let srv = Camelot.Cluster.server c 0 in
      Alcotest.(check bool) "sibling blocked" false
        (Camelot_lock.Lock_table.try_acquire (Data_server.locks srv) ~owner:child2
           ~key:"k" Camelot_lock.Lock_table.Exclusive);
      check_committed (Tranman.commit tm child1);
      Alcotest.(check bool) "after subcommit sibling may lock" true
        (Camelot_lock.Lock_table.try_acquire (Data_server.locks srv) ~owner:child2
           ~key:"k" Camelot_lock.Lock_table.Exclusive))

let test_grandchildren () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let parent = Tranman.begin_transaction tm in
        let child = Tranman.begin_nested tm ~parent in
        let grandchild = Tranman.begin_nested tm ~parent:child in
        ignore (Camelot.Cluster.op c ~origin:0 grandchild ~site:0 (Data_server.Write ("g", 3)) : int);
        check_committed (Tranman.commit tm grandchild);
        check_committed (Tranman.commit tm child);
        Tranman.commit tm parent)
  in
  check_committed o;
  settle c 100.0;
  Alcotest.(check int) "grandchild's write" 3 (peek c 0 "g")

let test_top_commit_aborts_unresolved_children () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let parent = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 parent ~site:0 (Data_server.Write ("p", 1)) : int);
        let child = Tranman.begin_nested tm ~parent in
        ignore (Camelot.Cluster.op c ~origin:0 child ~site:0 (Data_server.Write ("c", 2)) : int);
        (* child left unresolved: top commit aborts it first *)
        Tranman.commit tm parent)
  in
  check_committed o;
  settle c 100.0;
  Alcotest.(check int) "parent committed" 1 (peek c 0 "p");
  Alcotest.(check int) "unresolved child aborted" 0 (peek c 0 "c")

(* A top-level commit aborts its unresolved children deepest first,
   ties in members-table order. [Hashtbl.create 8] rounds up to 16
   buckets and first resizes at its 33rd entry, so 32 children and the
   root cross that resize and this order depends on the root going in
   first. It was recorded when every family built its table at
   creation. *)
let test_abort_order_across_resize () =
  let c = quiet_cluster ~sites:1 () in
  let tm = Camelot.Cluster.tranman c 0 in
  let aborted = ref [] in
  Tranman.register_server tm
    {
      State.sv_name = "stub";
      sv_vote = (fun _ -> Protocol.Vote_yes { read_only = true });
      sv_commit = ignore;
      sv_abort = (fun tid -> aborted := Tid.to_string tid :: !aborted);
      sv_subcommit = ignore;
      sv_release = ignore;
    };
  let o =
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        let parent = Tranman.begin_transaction tm in
        Tranman.join tm parent ~server:"stub";
        for _ = 1 to 32 do
          ignore (Tranman.begin_nested tm ~parent : Tid.t)
        done;
        Tranman.commit tm parent)
  in
  check_committed o;
  Alcotest.(check (list string))
    "abort order"
    (List.map (Printf.sprintf "T0.0/%d")
       [ 16; 2; 17; 18; 29; 25; 5; 12; 27; 28; 30; 31; 10; 3; 21; 9;
         4; 0; 7; 20; 26; 14; 23; 6; 8; 15; 24; 19; 1; 22; 13; 11 ])
    (List.rev !aborted)

let () =
  Alcotest.run "camelot_txn"
    [
      ( "local",
        [
          Alcotest.test_case "update commit" `Quick test_local_update_commit;
          Alcotest.test_case "read-only writes no log" `Quick test_local_read_only_no_log;
          Alcotest.test_case "ro-opt disabled still commits" `Quick
            test_read_only_opt_disabled_still_commits;
          Alcotest.test_case "abort restores value" `Quick test_abort_restores_value;
          Alcotest.test_case "server veto aborts" `Quick test_server_veto_aborts;
          Alcotest.test_case "two servers, one force" `Quick test_two_servers_one_force;
          Alcotest.test_case "serialization under contention" `Quick
            test_serialization_under_contention;
          Alcotest.test_case "locks released after commit" `Quick
            test_locks_released_after_commit;
          Alcotest.test_case "unknown tid raises" `Quick test_unknown_tid_raises;
          Alcotest.test_case "descriptor GC (forget)" `Quick test_forget_gc;
          Alcotest.test_case "commit idempotent" `Quick test_commit_idempotent;
          Alcotest.test_case "read-only tombstone budget" `Quick
            test_retained_per_read_only_txn;
          Alcotest.test_case "local update keeps only its log records" `Quick
            test_retained_per_local_update_txn;
          Alcotest.test_case "resolved 2PC keeps only markers and log records" `Quick
            test_retained_per_2pc_txn;
          Alcotest.test_case "read-only 2PC retires at its coordinator" `Quick
            test_retained_per_read_only_2pc_txn;
          Alcotest.test_case "2PC keeps both tombstones" `Quick
            test_distributed_keeps_tombstones;
          Alcotest.test_case "forgotten commit redone after restart" `Quick
            test_forgotten_commit_redone;
        ] );
      ( "nested",
        [
          Alcotest.test_case "child commits into parent" `Quick test_nested_commit_into_parent;
          Alcotest.test_case "child abort partial undo" `Quick test_nested_abort_partial_undo;
          Alcotest.test_case "parent abort undoes committed child" `Quick
            test_parent_abort_undoes_committed_child;
          Alcotest.test_case "lock anti-inheritance" `Quick test_child_lock_antiinheritance;
          Alcotest.test_case "sibling conflict until subcommit" `Quick
            test_sibling_lock_conflict_until_subcommit;
          Alcotest.test_case "grandchildren" `Quick test_grandchildren;
          Alcotest.test_case "top commit aborts unresolved children" `Quick
            test_top_commit_aborts_unresolved_children;
          Alcotest.test_case "abort order across the members table's resize" `Quick
            test_abort_order_across_resize;
        ] );
    ]
