(* The one closed loop behind the logger sweep and the protocol
   shootout. Every site runs N worker fibers, and each worker begins
   its next transaction as soon as the previous one returns, after a
   short exponential think time that desynchronizes the workers, as
   real applications are. Offered load therefore scales with workers
   until a resource (the log disk, the TranMan CPU, the wire)
   saturates.

   Sites are always touched in ascending id order, so multi-site lock
   acquisition follows one global hierarchy and cannot deadlock across
   sites. *)

open Camelot_sim
open Camelot_core

type mix =
  | Table3
  | All_sites of { protocol : Protocol.commit_protocol; paxos_f : int }

type result = {
  committed : int;
  aborted : int;
  latency : Stats.t;
  metrics : Camelot.Metrics.t;
}

(* Table3: a small key space, so the log is the shared resource.
   All_sites: a wide-enough key space that lock queueing stays a minor
   term; the shootout is about the commit path (forces, datagrams,
   quorum waits), not about lock convoys, though the occasional
   conflict keeps its abort column honest. *)
let keys_per_site = function Table3 -> 8 | All_sites _ -> 64
let think_mean_ms = function Table3 -> 5.0 | All_sites _ -> 50.0

(* Table-3 mix: 40% local read, 50% local update, 10% distributed
   update. *)
let p_read = 0.4
let p_local_update = 0.9

let protocol = function
  | Table3 -> Protocol.Two_phase
  | All_sites { protocol; _ } -> protocol

(* One transaction's operations, issued from [origin]. *)
let operate c mix rng ~sites ~origin tid =
  let key = Printf.sprintf "k%d" (Rng.int_below rng (keys_per_site mix)) in
  let op site o = ignore (Camelot.Cluster.op c ~origin tid ~site o : int) in
  let update_everywhere () =
    for site = 0 to sites - 1 do
      op site (Camelot_server.Data_server.Add (key, 1))
    done
  in
  match mix with
  | All_sites _ -> update_everywhere ()
  | Table3 ->
      let draw = Rng.uniform rng in
      if draw < p_read then op origin (Camelot_server.Data_server.Read key)
      else if draw < p_local_update then
        op origin (Camelot_server.Data_server.Add (key, 1))
      else update_everywhere ()

(* the cluster's seed; each worker's stream is derived from it *)
let seed = 11

let run ?logger ~mix ~sites ~workers_per_site ~horizon_ms () =
  let config = State.default_config ~threads:workers_per_site () in
  (match mix with
  | Table3 -> ()
  | All_sites { paxos_f; _ } ->
      config.State.paxos_f <- paxos_f;
      (* a latency table, not a failure drill: keep the inquiry and
         takeover watchdogs out of the fault-free runs even when
         queueing stretches a commit past the default silence
         thresholds *)
      config.State.vote_timeout_ms <- 2_000.0;
      config.State.subordinate_timeout_ms <- 10_000.0);
  let c =
    Camelot.Cluster.create ~seed ~model:Camelot_mach.Cost_model.vax ~config
      ?logger ~sites ()
  in
  let latency = Stats.create () in
  let committed = ref 0 and aborted = ref 0 in
  for origin = 0 to sites - 1 do
    let site = (Camelot.Cluster.node c origin).Camelot.Cluster.site in
    let tm = Camelot.Cluster.tranman c origin in
    for w = 0 to workers_per_site - 1 do
      let rng = Rng.create ~seed:(seed + (origin * 8191) + (w * 131) + 1) in
      Camelot_mach.Site.spawn site (fun () ->
          let rec loop () =
            if Fiber.now () < horizon_ms then begin
              Fiber.sleep (Rng.exponential rng ~mean:(think_mean_ms mix));
              if Fiber.now () < horizon_ms then begin
                let t0 = Fiber.now () in
                let tid = Tranman.begin_transaction tm in
                operate c mix rng ~sites ~origin tid;
                (match Tranman.commit tm ~protocol:(protocol mix) tid with
                | Protocol.Committed ->
                    incr committed;
                    Stats.add latency (Fiber.now () -. t0)
                | Protocol.Aborted -> incr aborted);
                loop ()
              end
            end
          in
          loop ())
    done
  done;
  Camelot.Cluster.run ~until:horizon_ms c;
  {
    committed = !committed;
    aborted = !aborted;
    latency;
    metrics = Camelot.Metrics.collect c;
  }
