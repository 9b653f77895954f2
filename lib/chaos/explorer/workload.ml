(* The workloads the explorer perturbs: small fixed transaction mixes
   with unique nonzero values per write, so the oracles can decide
   visibility by value equality alone. *)

open Camelot_core
open Camelot_server

(* One application transaction and what the application observed. *)
type txn = {
  x_label : string;
  x_origin : int;
  x_writes : (int * string * int) list;
      (* (site, key, value): visible everywhere iff the txn commits *)
  x_never : (int * string) list;  (* aborted-child writes: never visible *)
  x_tid : Tid.t option ref;
  x_result : Protocol.outcome option ref;
  x_skipped : bool ref;
      (* never ran: shed at admission, or its enabling shot failed *)
  x_deferred : bool;
      (* starts only after an earlier transaction commits (multi-shot) *)
}

type t = {
  w_name : string;
  w_protocol : Protocol.commit_protocol;  (* dominant protocol, for coverage *)
  w_sites : int;
  w_logger : Camelot.Cluster.logger;  (* log write-out policy *)
  w_checkpoint_every : int option;  (* automatic checkpoint+truncate *)
  w_recovery_partitions : int;  (* parallel replay fibers on restart *)
  w_start : Camelot.Cluster.t -> txn list;
}

(* The begin/writes/commit body shared by the fiber-per-transaction
   workloads and the queue-sharded one. A participant dying
   mid-operation surfaces as [Rpc_failure]; the application aborts,
   like the paper's §2 rule. *)
let txn_body c ~tm ~protocol ~origin ?(reads = []) ~writes ~tid_cell ~result () =
  let tid = Tranman.begin_transaction tm in
  tid_cell := Some tid;
  match
    List.iter
      (fun (site, key) ->
        ignore
          (Camelot.Cluster.op c ~origin tid ~site (Data_server.Read key) : int))
      reads;
    List.iter
      (fun (site, key, v) ->
        ignore
          (Camelot.Cluster.op c ~origin tid ~site (Data_server.Write (key, v))
            : int))
      writes
  with
  | () -> (
      (* an Rpc_failure out of commit itself means our own site is
         dying mid-call: the outcome is unknown, leave it unset *)
      match Tranman.commit tm ~protocol tid with
      | o -> result := Some o
      | exception Camelot_mach.Rpc.Rpc_failure _ -> ())
  | exception Camelot_mach.Rpc.Rpc_failure _ -> (
      match Tranman.abort tm tid with
      | () -> result := Some Protocol.Aborted
      | exception Camelot_mach.Rpc.Rpc_failure _ -> ())

(* Run the body as an application fiber on the origin site; a crash of
   that site kills it, as a real crash would kill the application
   process. *)
let start_txn c ~label ~protocol ~origin ~writes =
  let tm = Camelot.Cluster.tranman c origin in
  let tid_cell = ref None and result = ref None in
  let node = Camelot.Cluster.node c origin in
  Camelot_mach.Site.spawn node.Camelot.Cluster.site ~name:("chaos-" ^ label)
    (txn_body c ~tm ~protocol ~origin ~writes ~tid_cell ~result);
  {
    x_label = label;
    x_origin = origin;
    x_writes = writes;
    x_never = [];
    x_tid = tid_cell;
    x_result = result;
    x_skipped = ref false;
    x_deferred = false;
  }

(* Two crossing two-site transactions under two-phase commit: each site
   is coordinator for one and subordinate for the other. *)
let pair_2pc c =
  [
    start_txn c ~label:"t0" ~protocol:Protocol.Two_phase ~origin:0
      ~writes:[ (0, "a0", 11); (1, "b0", 12) ];
    start_txn c ~label:"t1" ~protocol:Protocol.Two_phase ~origin:1
      ~writes:[ (1, "b1", 21); (0, "a1", 22) ];
  ]

(* Two crossing three-site transactions under Paxos Commit: with the
   explorer's F = 1 every site is an acceptor, so injections land on
   forced acceptances, ballot conflicts and recovery-coordinator
   takeovers. *)
let trio_paxos c =
  [
    start_txn c ~label:"x0" ~protocol:Protocol.Paxos_commit ~origin:0
      ~writes:[ (0, "xa0", 131); (1, "xb0", 132); (2, "xc0", 133) ];
    start_txn c ~label:"x1" ~protocol:Protocol.Paxos_commit ~origin:1
      ~writes:[ (1, "xb1", 141); (2, "xc1", 142) ];
  ]

(* Two crossing two-site transactions under short-commit: locks drop
   at prepare time, so injections land between the early release and
   the (unacknowledged) commit notice — the conditional-undo window. *)
let pair_short c =
  [
    start_txn c ~label:"s0" ~protocol:Protocol.Short_commit ~origin:0
      ~writes:[ (0, "sa0", 151); (1, "sb0", 152) ];
    start_txn c ~label:"s1" ~protocol:Protocol.Short_commit ~origin:1
      ~writes:[ (1, "sb1", 161); (0, "sa1", 162) ];
  ]

(* Two crossing three-site transactions under the non-blocking
   protocol: quorums are majorities of three. *)
let trio_nb c =
  [
    start_txn c ~label:"n0" ~protocol:Protocol.Nonblocking ~origin:0
      ~writes:[ (0, "p0", 31); (1, "q0", 32); (2, "r0", 33) ];
    start_txn c ~label:"n1" ~protocol:Protocol.Nonblocking ~origin:1
      ~writes:[ (1, "q1", 41); (2, "r1", 42) ];
  ]

(* A nested family: the root writes locally, one child commits a remote
   write (anti-inherited into the root), one child aborts a remote
   write (must never surface), then the root commits via 2PC. *)
let nested c =
  let tm = Camelot.Cluster.tranman c 0 in
  let tid_cell = ref None and result = ref None in
  let node = Camelot.Cluster.node c 0 in
  Camelot_mach.Site.spawn node.Camelot.Cluster.site ~name:"chaos-nested"
    (fun () ->
      let tid = Tranman.begin_transaction tm in
      tid_cell := Some tid;
      match
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Data_server.Write ("nr", 51)) : int);
        let keeper = Tranman.begin_nested tm ~parent:tid in
        ignore
          (Camelot.Cluster.op c ~origin:0 keeper ~site:1 (Data_server.Write ("nc", 52)) : int);
        ignore (Tranman.commit tm keeper : Protocol.outcome);
        let loser = Tranman.begin_nested tm ~parent:tid in
        ignore
          (Camelot.Cluster.op c ~origin:0 loser ~site:1 (Data_server.Write ("nx", 53)) : int);
        Tranman.abort tm loser
      with
      | () -> (
          match Tranman.commit tm ~protocol:Protocol.Two_phase tid with
          | o -> result := Some o
          | exception Camelot_mach.Rpc.Rpc_failure _ -> ())
      | exception Camelot_mach.Rpc.Rpc_failure _ -> (
          match Tranman.abort tm tid with
          | () -> result := Some Protocol.Aborted
          | exception Camelot_mach.Rpc.Rpc_failure _ -> ()));
  [
    {
      x_label = "nested";
      x_origin = 0;
      x_writes = [ (0, "nr", 51); (1, "nc", 52) ];
      x_never = [ (1, "nx") ];
      x_tid = tid_cell;
      x_result = result;
      x_skipped = ref false;
      x_deferred = false;
    };
  ]

(* Two sequential two-site transactions with explicit checkpoints
   between and after them, under the pipelined logger daemon: every
   chaos injection lands around live truncation, exercising the
   checkpoint-summarizes-history paths (images, base-aware recovery,
   crash between checkpoint append and truncation). *)
let ckpt_2pc c =
  let t0 =
    start_txn c ~label:"c0" ~protocol:Protocol.Two_phase ~origin:0
      ~writes:[ (0, "ca", 91); (1, "cb", 92) ]
  in
  let node = Camelot.Cluster.node c 0 in
  Camelot_mach.Site.spawn node.Camelot.Cluster.site ~name:"chaos-ckpt"
    (fun () ->
      (* checkpoint both sites mid-flight and again once quiesced; the
         automatic checkpointer adds more as the log grows. An injected
         kill can land inside the checkpoint itself — that is the point,
         not a fiber failure worth reporting. *)
      try
        Camelot_sim.Fiber.sleep 40.0;
        Camelot.Cluster.checkpoint c 0;
        Camelot.Cluster.checkpoint c 1
      with Camelot_chaos.Killed -> ());
  let t1 =
    start_txn c ~label:"c1" ~protocol:Protocol.Two_phase ~origin:1
      ~writes:[ (1, "cc", 93); (0, "cd", 94) ]
  in
  [ t0; t1 ]

(* The pair-2pc shape routed through queue-sharded dispatch instead of
   fiber-per-transaction: each origin site gets a [Dispatch] whose
   executors run the transactions, so injections land on the
   [dispatch.shard.enqueue] admission point (a Drop there sheds the
   transaction before it begins — the oracles must treat a
   never-started transaction as trivially consistent) and crashes kill
   executors mid-transaction rather than dedicated app fibers. *)
let shard_2pc c =
  let dispatch =
    Array.init 2 (fun s ->
        Camelot_mach.Dispatch.create ~shards:2
          (Camelot.Cluster.node c s).Camelot.Cluster.site)
  in
  let submit ~label ~origin ~key ~writes =
    let tm = Camelot.Cluster.tranman c origin in
    let tid_cell = ref None and result = ref None in
    let admitted =
      Camelot_mach.Dispatch.submit_key dispatch.(origin) ~key
        (txn_body c ~tm ~protocol:Protocol.Two_phase ~origin ~writes ~tid_cell
           ~result)
    in
    {
      x_label = label;
      x_origin = origin;
      x_writes = writes;
      x_never = [];
      x_tid = tid_cell;
      x_result = result;
      x_skipped = ref (not admitted);
      x_deferred = false;
    }
  in
  [
    submit ~label:"q0" ~origin:0 ~key:0
      ~writes:[ (0, "qa", 111); (1, "qb", 112) ];
    submit ~label:"q1" ~origin:1 ~key:1
      ~writes:[ (1, "qc", 121); (0, "qd", 122) ];
  ]

(* The Table-3 style mix: a purely local transaction, a two-phase pair
   and a non-blocking triple, concurrently on three sites. *)
let mixed c =
  [
    start_txn c ~label:"m-local" ~protocol:Protocol.Two_phase ~origin:2
      ~writes:[ (2, "ml", 61) ];
    start_txn c ~label:"m-2pc" ~protocol:Protocol.Two_phase ~origin:0
      ~writes:[ (0, "ma", 71); (1, "mb", 72) ];
    start_txn c ~label:"m-nb" ~protocol:Protocol.Nonblocking ~origin:1
      ~writes:[ (1, "mc", 81); (2, "md", 82); (0, "me", 83) ];
  ]

(* Multi-shot chain: one key ("chain" at the home site 0) flows through
   [shots] sequential transactions, each originated at a different
   site; the commit of shot N enables shot N+1. A groupless controller
   fiber sequences the shots, so it survives site crashes — what dies
   with a crashed origin is the shot's own application fiber, exactly
   like the real application process. Shots after a failed one never
   start and are marked [x_skipped]; since the chain key is overwritten
   by every shot, only the {e last} shot claims it in [x_writes] (the
   intermediate values are not durable facts once overwritten). *)
let multishot ~shots ~protocol c =
  let sites = Camelot.Cluster.sites c in
  let home = 0 in
  let origin_of i = max 1 ((i + 1) * (sites - 1) / shots) in
  let txns =
    List.init shots (fun i ->
        let origin = origin_of i in
        {
          x_label = Printf.sprintf "ms%d" i;
          x_origin = origin;
          x_writes =
            ((origin, Printf.sprintf "ms%d" i, 211 + i)
            :: (if i = shots - 1 then [ (home, "chain", 201 + i) ] else []));
          x_never = [];
          x_tid = ref None;
          x_result = ref None;
          x_skipped = ref false;
          x_deferred = i > 0;
        })
  in
  let skip_from i =
    List.iteri
      (fun j t -> if j >= i && !(t.x_tid) = None then t.x_skipped := true)
      txns
  in
  let rec wait_alive site tries =
    if tries = 0 then false
    else if Camelot_mach.Site.alive (Camelot.Cluster.node c site).Camelot.Cluster.site
    then true
    else (
      Camelot_sim.Fiber.sleep 100.0;
      wait_alive site (tries - 1))
  in
  Camelot_sim.Fiber.spawn (Camelot_sim.Fiber.engine ()) ~name:"chaos-multishot"
    (fun () ->
      let rec shot i =
        if i >= shots then ()
        else
          let t = List.nth txns i in
          let origin = t.x_origin in
          if not (wait_alive origin 10) then (
            skip_from i)
          else begin
            let tm = Camelot.Cluster.tranman c origin in
            let writes =
              (origin, Printf.sprintf "ms%d" i, 211 + i)
              :: [ (home, "chain", 201 + i) ]
            in
            let reads = if i = 0 then [] else [ (home, "chain") ] in
            Camelot_mach.Site.spawn
              (Camelot.Cluster.node c origin).Camelot.Cluster.site
              ~name:("chaos-" ^ t.x_label)
              (txn_body c ~tm ~protocol ~origin ~reads ~writes
                 ~tid_cell:t.x_tid ~result:t.x_result);
            let deadline = Camelot_sim.Fiber.now () +. 2500.0 in
            let rec poll () =
              match !(t.x_result) with
              | Some Protocol.Committed -> shot (i + 1)
              | Some _ -> skip_from (i + 1)
              | None ->
                  if Camelot_sim.Fiber.now () >= deadline then skip_from (i + 1)
                  else (
                    Camelot_sim.Fiber.sleep 25.0;
                    poll ())
            in
            poll ()
          end
      in
      shot 0);
  txns

let unbatched = Camelot.Cluster.Unbatched
let adaptive = Camelot.Cluster.Adaptive

let all =
  [
    { w_name = "pair-2pc"; w_protocol = Protocol.Two_phase; w_sites = 2;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1; w_start = pair_2pc };
    { w_name = "trio-nb"; w_protocol = Protocol.Nonblocking; w_sites = 3;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1; w_start = trio_nb };
    { w_name = "trio-paxos"; w_protocol = Protocol.Paxos_commit; w_sites = 3;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1; w_start = trio_paxos };
    { w_name = "pair-short"; w_protocol = Protocol.Short_commit; w_sites = 2;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1; w_start = pair_short };
    { w_name = "nested"; w_protocol = Protocol.Two_phase; w_sites = 2;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1; w_start = nested };
    { w_name = "shard-2pc"; w_protocol = Protocol.Two_phase; w_sites = 2;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1; w_start = shard_2pc };
    { w_name = "mixed"; w_protocol = Protocol.Nonblocking; w_sites = 3;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1; w_start = mixed };
    { w_name = "ckpt-2pc"; w_protocol = Protocol.Two_phase; w_sites = 2;
      w_logger = adaptive; w_checkpoint_every = Some 8;
      w_recovery_partitions = 1; w_start = ckpt_2pc };
    (* the ckpt-2pc shape with two recovery partitions (two replay
       fibers, one per group of per-key dependency chains): injections
       land around truncating checkpoints and crash-mid-parallel-replay.
       Persisted corpora and replay tokens name this workload and
       multishot-dep, so the names stay. *)
    { w_name = "dep-2pc"; w_protocol = Protocol.Two_phase; w_sites = 2;
      w_logger = adaptive; w_checkpoint_every = Some 8;
      w_recovery_partitions = 2; w_start = ckpt_2pc };
    (* the multi-shot chains: cross-transaction recovery states the
       concurrent pair workloads cannot reach (a crash during shot N's
       recovery delays — or cancels — shot N+1) *)
    { w_name = "multishot-2pc"; w_protocol = Protocol.Two_phase; w_sites = 4;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1;
      w_start = multishot ~shots:3 ~protocol:Protocol.Two_phase };
    { w_name = "multishot-nb"; w_protocol = Protocol.Nonblocking; w_sites = 4;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1;
      w_start = multishot ~shots:2 ~protocol:Protocol.Nonblocking };
    { w_name = "multishot-dep"; w_protocol = Protocol.Two_phase; w_sites = 4;
      w_logger = adaptive; w_checkpoint_every = Some 8;
      w_recovery_partitions = 2;
      w_start = multishot ~shots:4 ~protocol:Protocol.Two_phase };
  ]

(* Findable by name but excluded from the default exploration pool:
   the paper-scale 24-site chain is too slow to run thousands of times
   per smoke budget, but the bare-workload test exercises it; the
   mixed transactions on the group-commit logger (the logger of
   Figs 4-5 and the logger sweep), whose followers park behind the
   write in flight and checkpoints truncate every 8 records, would
   re-baseline the smoke run, so [test_chaos] searches them alone. *)
let hidden =
  [
    { w_name = "multishot-24"; w_protocol = Protocol.Two_phase; w_sites = 24;
      w_logger = unbatched; w_checkpoint_every = None;
      w_recovery_partitions = 1;
      w_start = multishot ~shots:4 ~protocol:Protocol.Two_phase };
    { w_name = "group-mixed"; w_protocol = Protocol.Nonblocking; w_sites = 3;
      w_logger = Camelot.Cluster.Group_commit { window_ms = 5.0 };
      w_checkpoint_every = Some 8; w_recovery_partitions = 1; w_start = mixed };
  ]

let find name = List.find_opt (fun w -> w.w_name = name) (all @ hidden)
