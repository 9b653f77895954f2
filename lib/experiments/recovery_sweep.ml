(* Recovery-scaling sweep: partitioned parallel replay (Yao et al.),
   where updates are bucketed by the hash of their (server, key), so
   each key's update chain replays in one partition. One partition is
   the single totally-ordered pass every restart runs by default, so
   the sweep's baseline charges the same replay CPU per record.

   One site is loaded with a ~100k-record log — updates spread over a
   few hundred keys, committed in batches of 16 — then crashed and
   restarted with partitions ∈ {1, 2, 4, 8}. The rig gives the site an
   8-processor cost model so the per-record replay CPU charged by the
   partitions actually overlaps: simulated recovery time (and so
   ns/record) drops near-linearly until the partition count approaches
   either the processor count or the key-collision limit of the hash
   buckets. Everything is virtual time, so the numbers are
   deterministic and fit for regression guarding. *)

open Camelot_core

type point = {
  rp_partitions : int;
  rp_records : int;
  rp_replay_ms : float;  (* virtual ms from crash to recovery complete *)
  rp_ns_per_record : float;  (* simulated ns per replayed record *)
}

let partition_counts = [ 1; 2; 4; 8 ]

(* recovery hardware: 8 processors to replay chains on; no network or
   RPC noise matters here — the site never sends a message *)
let sweep_model = { Camelot_mach.Cost_model.rt with Camelot_mach.Cost_model.cpus = 8 }

let n_keys = 512
let txn_size = 16

let run_one ~records ~partitions =
  let c =
    Camelot.Cluster.create ~seed:1 ~model:sweep_model
      ~recovery_partitions:partitions ~sites:1 ()
  in
  let server = Camelot.Cluster.server c 0 in
  let name = Camelot_server.Data_server.name server in
  let log = Camelot.Cluster.log c 0 in
  Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
      (* Build the log directly — the sweep measures replay, not the
         forward path. Every txn_size-th record closes a transaction
         with a local Commit + End, so recovery classifies all updates
         as winners and redoes every one of them. *)
      for i = 0 to records - 1 do
        let key = "k" ^ string_of_int (i mod n_keys) in
        let tid = Tid.root ~origin:0 ~seq:(i / txn_size) in
        ignore
          (Camelot_wal.Log.append log
             (Record.Update
                {
                  u_tid = tid;
                  u_server = name;
                  u_key = key;
                  u_old = i / n_keys;
                  u_new = (i / n_keys) + 1;
                })
            : int);
        if i mod txn_size = txn_size - 1 then begin
          ignore
            (Camelot_wal.Log.append log
               (Record.Commit { c_tid = tid; c_sites = [] })
              : int);
          ignore (Camelot_wal.Log.append log (Record.End { e_tid = tid }) : int)
        end
      done;
      Camelot_wal.Log.force log;
      Camelot.Cluster.crash_site c 0;
      let t0 = Camelot_sim.Fiber.now () in
      ignore (Camelot.Cluster.restart_site c 0 : Tid.t list);
      let dt = Camelot_sim.Fiber.now () -. t0 in
      {
        rp_partitions = partitions;
        rp_records = records;
        rp_replay_ms = dt;
        rp_ns_per_record = dt *. 1e6 /. float_of_int records;
      })

let collect ?(records = 100_000) () =
  List.map (fun partitions -> run_one ~records ~partitions) partition_counts

let run ?records () =
  let points = collect ?records () in
  (match points with
  | [] -> ()
  | p :: _ ->
      Report.header
        (Printf.sprintf
           "Recovery scaling: partitioned replay of a %d-record log (%d-cpu \
            site)"
           p.rp_records sweep_model.Camelot_mach.Cost_model.cpus));
  Report.table
    ~columns:[ "PARTITIONS"; "replay (virtual ms)"; "ns/record" ]
    (List.map
       (fun p ->
         [
           string_of_int p.rp_partitions;
           Printf.sprintf "%.1f" p.rp_replay_ms;
           Printf.sprintf "%.0f" p.rp_ns_per_record;
         ])
       points);
  (match (points, List.rev points) with
  | p1 :: _, pk :: _ when p1.rp_ns_per_record > 0.0 ->
      Printf.printf
        "Speedup at %d partitions over %d partition: %.2fx.\n"
        pk.rp_partitions p1.rp_partitions
        (p1.rp_ns_per_record /. pk.rp_ns_per_record)
  | _ -> ());
  points
