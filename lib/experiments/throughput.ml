(* Closed-loop commit-pipeline throughput, beyond the paper's Figures
   4-5: instead of one application/server pair per client, every site
   runs N worker fibers that immediately begin their next transaction
   when the previous one returns (a closed loop, so offered load scales
   with workers until a resource saturates). The mix is Table-3-shaped:
   mostly small local updates, some local reads, an occasional
   distributed update driven through presumed-abort 2PC.

   The interesting output is the group-commit column pair: with one
   worker per site batching buys nothing (there is nobody to share the
   force with), while past a handful of workers the batched log turns
   many concurrent commit forces into one platter write and wins on
   both throughput and forces/commit. *)

open Camelot_sim
open Camelot_core

type result = {
  workers_per_site : int;
  logger : Camelot.Cluster.logger;
  tps : float;  (* committed transactions per second of virtual time *)
  committed : int;
  forces_per_commit : float;
  disk_writes_per_commit : float;
}

let keys_per_site = 8
let think_mean_ms = 5.0

(* Table-3-style mix: 40% local read, 50% local update, 10%
   distributed update. *)
let p_read = 0.4
let p_local_update = 0.9

let run_one ?(seed = 11) ?(sites = 2) ~logger ~workers_per_site ~horizon_ms
    () =
  let config = State.default_config ~threads:workers_per_site () in
  let c =
    Camelot.Cluster.create ~seed ~model:Camelot_mach.Cost_model.vax ~config
      ~logger ~sites ()
  in
  for site = 0 to sites - 1 do
    let node = Camelot.Cluster.node c site in
    let tm = Camelot.Cluster.tranman c site in
    for w = 0 to workers_per_site - 1 do
      let rng = Rng.create ~seed:(seed + (site * 8191) + (w * 131) + 1) in
      Camelot_mach.Site.spawn node.Camelot.Cluster.site (fun () ->
          let rec loop () =
            if Fiber.now () < horizon_ms then begin
              (* a short exponential think time desynchronizes the
                 workers, as real applications are *)
              Fiber.sleep (Rng.exponential rng ~mean:think_mean_ms);
              if Fiber.now () < horizon_ms then begin
                let tid = Tranman.begin_transaction tm in
                let key = Printf.sprintf "k%d" (Rng.int_below rng keys_per_site) in
                let draw = Rng.uniform rng in
                let outcome =
                  if draw < p_read then begin
                    ignore
                      (Camelot.Cluster.op c ~origin:site tid ~site
                         (Camelot_server.Data_server.Read key)
                        : int);
                    Tranman.commit tm tid
                  end
                  else if draw < p_local_update then begin
                    ignore
                      (Camelot.Cluster.op c ~origin:site tid ~site
                         (Camelot_server.Data_server.Add (key, 1))
                        : int);
                    Tranman.commit tm tid
                  end
                  else begin
                    (* distributed update. Sites are always touched in
                       ascending id order, so multi-site lock
                       acquisition follows one global hierarchy and
                       cannot deadlock across sites. *)
                    for s = 0 to sites - 1 do
                      ignore
                        (Camelot.Cluster.op c ~origin:site tid ~site:s
                           (Camelot_server.Data_server.Add (key, 1))
                          : int)
                    done;
                    Tranman.commit tm ~protocol:Protocol.Two_phase tid
                  end
                in
                ignore (outcome : Protocol.outcome);
                loop ()
              end
            end
          in
          loop ())
    done
  done;
  Camelot.Cluster.run ~until:horizon_ms c;
  let m = Camelot.Metrics.collect c in
  let committed = Camelot.Metrics.total_committed m in
  {
    workers_per_site;
    logger;
    tps = float_of_int committed /. (horizon_ms /. 1000.0);
    committed;
    forces_per_commit = Camelot.Metrics.forces_per_commit m;
    disk_writes_per_commit = Camelot.Metrics.disk_writes_per_commit m;
  }

let worker_range = [ 1; 2; 4; 8; 16 ]

let collect ?(horizon_ms = 20_000.0) () =
  List.map
    (fun workers_per_site ->
      let run logger = run_one ~logger ~workers_per_site ~horizon_ms () in
      let off = run Camelot.Cluster.Unbatched in
      (* the gc-on column tracks the shipping batched log, i.e. the
         pipelined logger daemon *)
      let on_ = run Camelot.Cluster.Adaptive in
      (off, on_))
    worker_range

let run ?horizon_ms () =
  let rows = collect ?horizon_ms () in
  Report.header
    "Throughput: closed-loop Table-3 mix, 2 sites (TPS and log forces/commit)";
  Report.table
    ~columns:
      [
        "WORKERS/SITE";
        "TPS (gc off)";
        "TPS (gc on)";
        "frc/commit (off)";
        "frc/commit (on)";
        "wr/commit (on)";
      ]
    (List.map
       (fun ((off : result), (on_ : result)) ->
         [
           string_of_int off.workers_per_site;
           Printf.sprintf "%.1f" off.tps;
           Printf.sprintf "%.1f" on_.tps;
           Printf.sprintf "%.2f" off.forces_per_commit;
           Printf.sprintf "%.2f" on_.forces_per_commit;
           Printf.sprintf "%.2f" on_.disk_writes_per_commit;
         ])
       rows);
  (match
     List.find_opt (fun ((off : result), (on_ : result)) -> on_.tps > off.tps) rows
   with
  | Some (off, _) ->
      Printf.printf
        "Group commit first wins at %d worker(s)/site: batching turns \
         concurrent commit forces into shared platter writes.\n"
        off.workers_per_site
  | None -> print_endline "Group commit never won in this range.");
  rows
