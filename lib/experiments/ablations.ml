open Camelot_sim
open Camelot_core

(* Run [reps] distributed minimal update transactions on a fresh 2-site
   cluster with the given TranMan tweaks; return (mean latency,
   subordinate forces per transaction, subordinate disk writes per
   transaction). *)
let distributed_updates ?(reps = 60) ?protocol tweak =
  let c = Camelot.Cluster.create ~seed:7 ~sites:2 () in
  Camelot.Cluster.each_config c tweak;
  let tm = Camelot.Cluster.tranman c 0 in
  let lat = Stats.create () in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      for _ = 1 to reps do
        let t0 = Fiber.now () in
        let tid = Tranman.begin_transaction tm in
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Camelot_server.Data_server.Add ("a", 1)) : int);
        ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Camelot_server.Data_server.Add ("b", 1)) : int);
        (match Tranman.commit tm ?protocol tid with
        | Protocol.Committed -> ()
        | Protocol.Aborted -> failwith "unexpected abort");
        Stats.add lat (Fiber.now () -. t0)
      done);
  (* let the delayed acks and lazy writes drain *)
  let eng = Camelot.Cluster.engine c in
  Camelot.Cluster.run ~until:(Engine.now eng +. 3000.0) c;
  let sub_log = Camelot.Cluster.log c 1 in
  ( Stats.mean lat,
    float_of_int (Camelot_wal.Log.forces sub_log) /. float_of_int reps,
    float_of_int (Camelot_wal.Log.disk_writes sub_log) /. float_of_int reps )

let ablate_two_phase_variant ~reps =
  Report.header "Ablation: §3.2 delayed-commit-ack optimization (2 sites)";
  let rows =
    List.map
      (fun (name, variant) ->
        let lat, forces, writes =
          distributed_updates ~reps (fun cfg -> cfg.State.two_phase_variant <- variant)
        in
        [ name; Report.f1 lat; Printf.sprintf "%.2f" forces; Printf.sprintf "%.2f" writes ])
      [
        ("optimized", State.Optimized);
        ("semi-optimized", State.Semi_optimized);
        ("unoptimized", State.Unoptimized);
      ]
  in
  Report.table
    ~columns:[ "VARIANT"; "LATENCY (ms)"; "SUB FORCES/TXN"; "SUB WRITES/TXN" ]
    rows;
  print_endline
    "The optimization saves the subordinate one log force per distributed\n\
     update transaction (1 vs 2) at no latency cost — the paper's claim 1."

let ablate_read_only ~reps =
  Report.header "Ablation: read-only optimization (1-subordinate read)";
  let measure flag =
    let c = Camelot.Cluster.create ~seed:8 ~sites:2 () in
    Camelot.Cluster.each_config c (fun cfg -> cfg.State.read_only_optimization <- flag);
    let tm = Camelot.Cluster.tranman c 0 in
    let lat = Stats.create () in
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        for _ = 1 to reps do
          let t0 = Fiber.now () in
          let tid = Tranman.begin_transaction tm in
          ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Camelot_server.Data_server.Read "a") : int);
          ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Camelot_server.Data_server.Read "b") : int);
          ignore (Tranman.commit tm tid : Protocol.outcome);
          Stats.add lat (Fiber.now () -. t0)
        done);
    let eng = Camelot.Cluster.engine c in
    Camelot.Cluster.run ~until:(Engine.now eng +. 2000.0) c;
    (Stats.mean lat, Camelot_wal.Log.forces (Camelot.Cluster.log c 0)
                     + Camelot_wal.Log.forces (Camelot.Cluster.log c 1))
  in
  let lat_on, forces_on = measure true in
  let lat_off, forces_off = measure false in
  Report.table
    ~columns:[ "READ-ONLY OPT"; "LATENCY (ms)"; "TOTAL FORCES" ]
    [
      [ "on"; Report.f1 lat_on; string_of_int forces_on ];
      [ "off"; Report.f1 lat_off; string_of_int forces_off ];
    ]

let ablate_nb_quorum ~reps =
  Report.header "Ablation: non-blocking replication quorum size (4 sites)";
  let rows =
    List.map
      (fun q ->
        let c = Camelot.Cluster.create ~seed:9 ~sites:4 () in
        Camelot.Cluster.each_config c (fun cfg -> cfg.State.commit_quorum <- Some q);
        let tm = Camelot.Cluster.tranman c 0 in
        let lat = Stats.create () in
        Fiber.run (Camelot.Cluster.engine c) (fun () ->
            for _ = 1 to reps do
              let t0 = Fiber.now () in
              let tid = Tranman.begin_transaction tm in
              for site = 0 to 3 do
                ignore
                  (Camelot.Cluster.op c ~origin:0 tid ~site
                     (Camelot_server.Data_server.Add (Printf.sprintf "k%d" site, 1))
                    : int)
              done;
              (match Tranman.commit tm ~protocol:Protocol.Nonblocking tid with
              | Protocol.Committed -> ()
              | Protocol.Aborted -> failwith "unexpected abort");
              Stats.add lat (Fiber.now () -. t0)
            done);
        [ string_of_int q; Report.f1 (Stats.mean lat) ])
      [ 1; 2; 3; 4 ]
  in
  Report.table ~columns:[ "COMMIT QUORUM"; "LATENCY (ms)" ] rows;
  print_endline
    "A quorum of 1 lets the coordinator's own replication record decide\n\
     (fast but blocking on coordinator loss); larger quorums wait for more\n\
     replicate-acks. The default is a majority."

let ablate_batch_window () =
  Report.header "Ablation: group-commit batching window (§3.5 latency/throughput trade)";
  (* six committers force a standalone VAX log under Poisson load; the
     window trades force latency for fewer disk writes *)
  let standalone window =
    let eng = Engine.create () in
    let site =
      Camelot_mach.Site.create eng ~id:0 ~model:Camelot_mach.Cost_model.vax
        ~rng:(Rng.create ~seed:12)
    in
    let log =
      Camelot_wal.Log.create
        ~policy:(Camelot_wal.Log.Group_commit { window_ms = window })
        site
    in
    let lat = Stats.create () in
    let n = ref 0 in
    let rng = Rng.create ~seed:13 in
    for _ = 1 to 6 do
      Camelot_mach.Site.spawn site (fun () ->
          let rec loop () =
            if Fiber.now () < 30_000.0 then begin
              Fiber.sleep (Rng.exponential rng ~mean:120.0);
              let t0 = Fiber.now () in
              ignore (Camelot_wal.Log.append log () : int);
              Camelot_wal.Log.force log;
              incr n;
              Stats.add lat (Fiber.now () -. t0);
              loop ()
            end
          in
          loop ())
    done;
    Engine.run ~until:30_000.0 eng;
    (float_of_int !n /. 30.0, Stats.mean lat, Camelot_wal.Log.disk_writes log)
  in
  Report.table
    ~columns:[ "BATCH WINDOW (ms)"; "FORCES/S"; "MEAN FORCE LATENCY (ms)"; "DISK WRITES" ]
    (List.map
       (fun w ->
         let tps, lat, writes = standalone w in
         [ Report.f1 w; Report.f1 tps; Report.f1 lat; string_of_int writes ])
       [ 0.0; 20.0; 60.0 ]);
  print_endline
    "A longer window batches more log records per disk write (fewer\n\
     writes) at the price of added commit latency — batching \"sacrifices\n\
     latency in order to increase throughput\" (§3.5)."

(* Extension: presumed abort (Camelot's choice) against presumed commit
   [Mohan & Lindsay], measured as forces, datagrams and latency per
   distributed transaction, separately for commits and aborts. *)
let ablate_presumption ~reps =
  Report.header
    "Extension: presumed abort vs presumed commit (2 sites, per txn averages)";
  let measure presumption ~abort_all =
    let c = Camelot.Cluster.create ~seed:19 ~sites:2 () in
    Camelot.Cluster.each_config c (fun cfg -> cfg.State.presumption <- presumption);
    let tm = Camelot.Cluster.tranman c 0 in
    let lat = Stats.create () in
    Fiber.run (Camelot.Cluster.engine c) (fun () ->
        for _ = 1 to reps do
          let t0 = Fiber.now () in
          let tid = Tranman.begin_transaction tm in
          ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 (Camelot_server.Data_server.Add ("a", 1)) : int);
          ignore (Camelot.Cluster.op c ~origin:0 tid ~site:1 (Camelot_server.Data_server.Add ("b", 1)) : int);
          if abort_all then
            Camelot_server.Data_server.veto_next (Camelot.Cluster.server c 1) tid;
          ignore (Tranman.commit tm tid : Protocol.outcome);
          Stats.add lat (Fiber.now () -. t0)
        done);
    let eng = Camelot.Cluster.engine c in
    Camelot.Cluster.run ~until:(Engine.now eng +. 5000.0) c;
    let n = float_of_int reps in
    let per x = Printf.sprintf "%.2f" (float_of_int x /. n) in
    [
      Report.f1 (Stats.mean lat);
      per (Camelot_wal.Log.forces (Camelot.Cluster.log c 0));
      per (Camelot_wal.Log.forces (Camelot.Cluster.log c 1));
      per (Camelot_net.Lan.sent (Camelot.Cluster.lan c));
    ]
  in
  Report.table
    ~columns:
      [ "PRESUMPTION / WORKLOAD"; "LATENCY (ms)"; "COORD F/TXN"; "SUB F/TXN"; "DGRAMS/TXN" ]
    [
      "presumed abort, commits" :: measure State.Presume_abort ~abort_all:false;
      "presumed commit, commits" :: measure State.Presume_commit ~abort_all:false;
      "presumed abort, aborts" :: measure State.Presume_abort ~abort_all:true;
      "presumed commit, aborts" :: measure State.Presume_commit ~abort_all:true;
    ];
  print_endline
    "Presumed commit removes the commit-ack datagram entirely but pays a\n\
     forced collecting record per distributed transaction and forced,\n\
     acknowledged aborts — the Mohan-Lindsay trade. Camelot (presumed\n\
     abort + the §3.2 optimization) wins when aborts and read-only\n\
     transactions matter."

(* Beyond the paper's pure-read and pure-update points: sweep the
   update fraction and watch the logger bottleneck take over from the
   CPU, with and without group commit. *)
let ablate_mixed_workload () =
  Report.header "Extension: throughput vs update fraction (4 pairs, 20 threads, VAX)";
  let fractions = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let row gc =
    (if gc then "group commit" else "no batching")
    :: List.map
         (fun f ->
           let r =
             Workload.throughput ~update_fraction:f ~pairs:4 ~threads:20
               ~group_commit:gc ~horizon_ms:30_000.0 ()
           in
           Printf.sprintf "%.1f" r.Workload.tps)
         fractions
  in
  Report.table
    ~columns:("CONFIG" :: List.map (fun f -> Printf.sprintf "%.0f%% upd" (100.0 *. f)) fractions)
    [ row false; row true ];
  print_endline
    "Throughput falls as the update fraction grows (each update adds disk\n\
     and disk-manager work); group commit recovers more of it the more\n\
     updates there are to batch."

let run ?(reps = 80) () =
  ablate_two_phase_variant ~reps;
  ablate_read_only ~reps;
  ablate_nb_quorum ~reps:(max 20 (reps / 2));
  ablate_batch_window ();
  ablate_presumption ~reps:(max 20 (reps / 2));
  ablate_mixed_workload ()
