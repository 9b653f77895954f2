(* Shared helpers for the integration test suites. *)

open Camelot_mach
open Camelot_core

(* A cost model with all stochastic noise removed: virtual-time
   assertions become exact. *)
let quiet_model =
  {
    Cost_model.rt with
    Cost_model.datagram_jitter_ms = 0.0;
    send_hiccup_p = 0.0;
    rpc_jitter_ms = 0.0;
  }

(* TranMan configuration with short timeouts so failure scenarios
   resolve quickly in virtual time. *)
let fast_config () =
  let c = State.default_config () in
  c.State.vote_timeout_ms <- 100.0;
  c.State.max_vote_retries <- 2;
  c.State.outcome_retry_ms <- 150.0;
  c.State.subordinate_timeout_ms <- 400.0;
  c.State.takeover_retry_ms <- 200.0;
  c

(* Remove CPU jitter too: zero the mean used by State.charge_cpu's
   exponential (it scales with tranman_cpu_ms, so leave that; tests
   that need exactness assert ranges instead). *)

let quiet_cluster ?config ?servers_per_site ?(sites = 2) () =
  Camelot.Cluster.create ~model:quiet_model
    ~config:(match config with Some c -> c | None -> fast_config ())
    ?servers_per_site ~sites ()

(* Drive the engine for [ms] more virtual milliseconds (lets background
   fibers — notify, acks, flusher — settle before asserting). *)
let settle c ms =
  let eng = Camelot.Cluster.engine c in
  Camelot.Cluster.run ~until:(Camelot_sim.Engine.now eng +. ms) c

let outcome_testable =
  Alcotest.testable Protocol.pp_outcome (fun a b -> a = b)

let status_testable = Alcotest.testable Protocol.pp_status (fun a b -> a = b)

let check_committed = Alcotest.check outcome_testable "committed" Protocol.Committed
let check_aborted = Alcotest.check outcome_testable "aborted" Protocol.Aborted

(* Count log records matching a predicate in a site's durable+volatile log. *)
let count_records c site p =
  List.length
    (List.filter (fun (_, r) -> p r) (Camelot_wal.Log.all_records (Camelot.Cluster.log c site)))

let has_record c site p = count_records c site p > 0

let is_commit = function Record.Commit _ -> true | _ -> false
let is_prepare = function Record.Prepare _ -> true | _ -> false
let is_abort = function Record.Abort _ -> true | _ -> false
let is_end = function Record.End _ -> true | _ -> false
let is_replication = function Record.Replication _ -> true | _ -> false
let is_refusal = function Record.Refusal _ -> true | _ -> false
let is_update = function Record.Update _ -> true | _ -> false

let peek c site key = Camelot_server.Data_server.peek (Camelot.Cluster.server c site) key

(* Deterministic replay for the randomized suites. CAMELOT_SEED pins
   the QCheck generator state; without it a fresh seed is drawn and
   printed up front, so any failure report carries the exact seed to
   replay with `CAMELOT_SEED=<n> dune runtest`. *)
let qcheck_seed =
  lazy
    (match Sys.getenv_opt "CAMELOT_SEED" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n ->
            Printf.eprintf "camelot: replaying with CAMELOT_SEED=%d\n%!" n;
            n
        | None -> invalid_arg "CAMELOT_SEED must be an integer")
    | None ->
        Random.self_init ();
        let n = Random.int 0x3FFFFFFF in
        Printf.eprintf
          "camelot: property seed %d (replay failures with CAMELOT_SEED=%d)\n%!"
          n n;
        n)

let qcheck_rand () = Random.State.make [| Lazy.force qcheck_seed |]

(* Poll a predicate from inside a fiber (used by failure tests to crash
   a site at a precise protocol state). *)
let wait_until ?(timeout = 30_000.0) ?(what = "condition") pred =
  let deadline = Camelot_sim.Fiber.now () +. timeout in
  let rec loop () =
    if pred () then ()
    else if Camelot_sim.Fiber.now () > deadline then
      Alcotest.failf "wait_until: %s not reached in %.0fms" what timeout
    else begin
      Camelot_sim.Fiber.sleep 2.0;
      loop ()
    end
  in
  loop ()

(* A coordinator crash at a fault point: site 0 dies the first time it
   hits [point], and restarts 300 ms later. Call it from the
   orchestrating fiber while the transaction commits in a site-0
   fiber. *)
let crash_coordinator_at ~point c =
  let fired = ref false in
  Camelot_chaos.attach
    ~on_hit:(fun ~point:p ~site ->
      if p = point && site = 0 && not !fired then begin
        fired := true;
        Camelot_chaos.Kill
      end
      else Camelot_chaos.Pass)
    ~on_note:(fun ~site:_ _ -> ())
    ~crash:(fun ~site -> Camelot.Cluster.crash_site c site);
  Fun.protect ~finally:Camelot_chaos.detach (fun () ->
      wait_until ~what:("coordinator crashed at " ^ point) (fun () -> !fired);
      Camelot_sim.Fiber.sleep 300.0;
      ignore (Camelot.Cluster.restart_site c 0 : Tid.t list))

(* The decision-point crash: the coordinator has every vote in and no
   outcome logged (the [coord.votes.collected] fault point). *)
let crash_coordinator_at_votes_collected c =
  crash_coordinator_at ~point:Two_phase.p_votes_collected c

(* Datagrams the cluster's LAN carries during [ms] more virtual
   milliseconds: 0 once every outcome notice has been acknowledged.
   Call it from a fiber. *)
let datagrams_during c ms =
  let lan = Camelot.Cluster.lan c in
  let before = Camelot_net.Lan.sent lan in
  Camelot_sim.Fiber.sleep ms;
  Camelot_net.Lan.sent lan - before
