(* Cross-protocol conformance suite: the four commit protocols —
   two-phase, non-blocking, Paxos Commit and short-commit — run the
   same seeded workloads through the full lifecycle (workload,
   durability hammer, resolution everywhere) and must satisfy the
   AC1–AC5 atomic-commitment oracles; 2PC and Paxos Commit at F = 0
   must resolve every transaction identically on fault-free schedules,
   and exchange exactly the same number of messages on the fault-free
   commit path (short-commit strictly fewer).

   The workload generator draws from the shared CAMELOT_SEED stream:
   failures replay with `CAMELOT_SEED=<n> dune runtest`. *)

open Camelot_core
open Testutil
open Camelot_chaos_explorer

let protocols =
  [
    ("2pc", Protocol.Two_phase, 0);
    ("nb", Protocol.Nonblocking, 0);
    ("paxos-f0", Protocol.Paxos_commit, 0);
    ("paxos-f1", Protocol.Paxos_commit, 1);
    ("short", Protocol.Short_commit, 0);
  ]

(* --- seeded workload specs ---------------------------------------- *)

type spec = {
  sp_label : string;
  sp_origin : int;
  sp_writes : (int * string * int) list;
}

(* [n] transactions over [sites] sites with pairwise-disjoint keys (so
   fault-free runs never conflict and every one must commit — AC4) and
   unique nonzero values (so the oracles decide visibility by value). *)
let gen_specs rand ~sites ~n =
  List.init n (fun i ->
      let origin = Random.State.int rand sites in
      let breadth = 1 + Random.State.int rand (min 3 sites) in
      let rec pick acc k =
        if k = 0 then acc
        else
          let s = Random.State.int rand sites in
          if List.mem s acc then pick acc k else pick (s :: acc) (k - 1)
      in
      let participants = List.rev (pick [ origin ] (breadth - 1)) in
      {
        sp_label = Printf.sprintf "g%d" i;
        sp_origin = origin;
        sp_writes =
          List.mapi
            (fun j s -> (s, Printf.sprintf "g%d.%d" i j, (1000 * (i + 1)) + j + 1))
            participants;
      })

(* --- the lifecycle runner ----------------------------------------- *)

(* Run the specs under one protocol on a fresh cluster: start them all
   concurrently, wait for every application to observe its outcome,
   then crash every site and restart (the durability hammer — only
   log-backed state may survive into the oracles) and drive every
   family to resolution at every site. *)
let run_specs ~protocol ~paxos_f ~sites specs =
  let cfg = fast_config () in
  cfg.State.paxos_f <- paxos_f;
  let c = quiet_cluster ~config:cfg ~sites () in
  let txns = ref [] in
  Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let ts =
        List.map
          (fun sp ->
            Workload.start_txn c ~label:sp.sp_label ~protocol
              ~origin:sp.sp_origin ~writes:sp.sp_writes)
          specs
      in
      txns := ts;
      wait_until ~what:"every application observed its outcome" (fun () ->
          List.for_all (fun (t : Workload.txn) -> !(t.Workload.x_result) <> None) ts);
      Camelot_sim.Fiber.sleep 2000.0;
      for i = 0 to sites - 1 do
        Camelot.Cluster.crash_site c i
      done;
      Camelot.Cluster.heal c;
      for i = 0 to sites - 1 do
        ignore (Camelot.Cluster.restart_site c i : Tid.t list)
      done;
      wait_until ~what:"resolved at every site after the hammer" (fun () ->
          List.for_all
            (fun (t : Workload.txn) ->
              match !(t.Workload.x_tid) with
              | None -> true
              | Some tid ->
                  List.for_all
                    (fun i ->
                      match Tranman.status (Camelot.Cluster.tranman c i) tid with
                      | Protocol.St_unknown | Protocol.St_committed
                      | Protocol.St_aborted ->
                          true
                      | _ -> false)
                    (List.init sites Fun.id))
            ts);
      Camelot_sim.Fiber.sleep 1000.0);
  (c, !txns)

let check_no_violations label c txns =
  let violations = Oracle.check ~fault_free:true c txns in
  List.iter
    (fun v -> Printf.eprintf "%s: [%s] %s\n" label v.Oracle.v_oracle v.Oracle.v_detail)
    violations;
  Alcotest.(check int) (label ^ ": AC1-AC5 clean") 0 (List.length violations)

(* --- AC1-AC5 for every protocol on the same seeded workloads ------- *)

let test_conformance_all_protocols () =
  let rand = qcheck_rand () in
  for round = 1 to 3 do
    let sites = 3 in
    let specs = gen_specs rand ~sites ~n:4 in
    List.iter
      (fun (name, protocol, paxos_f) ->
        let label = Printf.sprintf "round %d %s" round name in
        let c, txns = run_specs ~protocol ~paxos_f ~sites specs in
        check_no_violations label c txns;
        List.iter
          (fun (t : Workload.txn) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s committed" label t.Workload.x_label)
              true
              (!(t.Workload.x_result) = Some Protocol.Committed))
          txns)
      protocols
  done

(* --- 2PC and Paxos-F=0 resolve identically fault-free -------------- *)

let test_2pc_paxos_f0_identical_outcomes () =
  let rand = qcheck_rand () in
  for _round = 1 to 3 do
    let sites = 3 in
    let specs = gen_specs rand ~sites ~n:5 in
    let outcomes ~protocol =
      let _, txns = run_specs ~protocol ~paxos_f:0 ~sites specs in
      List.map
        (fun (t : Workload.txn) -> (t.Workload.x_label, !(t.Workload.x_result)))
        txns
    in
    let o2pc = outcomes ~protocol:Protocol.Two_phase in
    let opax = outcomes ~protocol:Protocol.Paxos_commit in
    List.iter2
      (fun (l, a) (_, b) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: 2PC and Paxos-F=0 agree" l)
          true (a = b))
      o2pc opax
  done

(* --- message-count accounting (fault-free commit path) ------------- *)

(* One update transaction from site 0 touching both other sites, under
   pinned presumed abort; the cluster's LAN counts every datagram until
   the cluster quiesces. At F = 0 the sole Paxos acceptor rides the
   coordinator, votes travel as ballot-0 acceptances over the same
   datagram count as 2PC votes, and the acceptance self-hand-off is
   local: the exchange is message-for-message identical. Short-commit
   skips the commit acknowledgements: strictly fewer. *)
let count_messages ~protocol ~paxos_f =
  let cfg = fast_config () in
  cfg.State.presumption <- State.Presume_abort;
  cfg.State.paxos_f <- paxos_f;
  let c = quiet_cluster ~config:cfg ~sites:3 () in
  Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
      let t =
        Workload.start_txn c ~label:"msg" ~protocol ~origin:0
          ~writes:[ (0, "ka", 1); (1, "kb", 2); (2, "kc", 3) ]
      in
      wait_until ~what:"committed" (fun () ->
          !(t.Workload.x_result) = Some Protocol.Committed);
      (* let the outcome notices, acks and End settle *)
      Camelot_sim.Fiber.sleep 5000.0);
  Camelot_net.Lan.sent (Camelot.Cluster.lan c)

let test_message_counts () =
  let m2pc = count_messages ~protocol:Protocol.Two_phase ~paxos_f:0 in
  let mpax0 = count_messages ~protocol:Protocol.Paxos_commit ~paxos_f:0 in
  let mpax1 = count_messages ~protocol:Protocol.Paxos_commit ~paxos_f:1 in
  let mshort = count_messages ~protocol:Protocol.Short_commit ~paxos_f:0 in
  Alcotest.(check int)
    (Printf.sprintf "Paxos-F=0 sends exactly 2PC's messages (%d)" m2pc)
    m2pc mpax0;
  Alcotest.(check bool)
    (Printf.sprintf "short-commit (%d) strictly undercuts 2PC (%d)" mshort m2pc)
    true (mshort < m2pc);
  Alcotest.(check bool)
    (Printf.sprintf "Paxos-F=1 (%d) pays for its acceptors over 2PC (%d)" mpax1
       m2pc)
    true (mpax1 > m2pc)

let () =
  Alcotest.run "camelot_protocols"
    [
      ( "conformance",
        [
          Alcotest.test_case "AC1-AC5 for all protocols on seeded workloads"
            `Quick test_conformance_all_protocols;
          Alcotest.test_case "2PC and Paxos-F=0 outcomes identical" `Quick
            test_2pc_paxos_f0_identical_outcomes;
        ] );
      ( "messages",
        [
          Alcotest.test_case "Paxos-F=0 == 2PC, short < 2PC" `Quick
            test_message_counts;
        ] );
    ]
