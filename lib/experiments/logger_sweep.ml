(* Logger-bottleneck sweep: where does the log stop being the
   bottleneck, and which write-out policy gets there first?

   Three policies over the closed-loop Table-3 mix of [Closed_loop]:

   - naive:    every commit force is its own platter write (group
               commit off) — the §3.5 strawman;
   - fixed:    group commit with the legacy leader/follower batching
               (the paper's reproduced configuration);
   - adaptive: the pipelined logger daemon — LSN-ordered wakeups,
               double-buffered platter writes, and a batching window
               adapted to the observed force arrival rate.

   Swept at 2 and 4 sites up to 32 workers/site. The naive column
   saturates as soon as concurrent forces serialize on the platter;
   fixed rides batching further but keeps charging per-record spool
   CPU on the foreground path; adaptive moves serialization onto the
   daemon and overlaps the next batch with the in-flight write, so its
   knee is set by TranMan CPU, not the log. *)

type point = {
  sweep_sites : int;
  sweep_workers : int;
  naive_tps : float;
  fixed_tps : float;
  adaptive_tps : float;
}

let site_range = [ 2; 4 ]
let sweep_workers = [ 1; 2; 4; 8; 16; 32 ]

let collect ?(horizon_ms = 20_000.0) () =
  List.concat_map
    (fun sites ->
      List.map
        (fun workers ->
          (* transactions the workers saw commit: a distributed update
             counts once, not at each site that resolves it *)
          let tps logger =
            let r =
              Closed_loop.run ~mix:Closed_loop.Table3 ~logger ~sites
                ~workers_per_site:workers ~horizon_ms ()
            in
            float_of_int r.Closed_loop.committed /. (horizon_ms /. 1000.0)
          in
          {
            sweep_sites = sites;
            sweep_workers = workers;
            naive_tps = tps Camelot.Cluster.Unbatched;
            fixed_tps = tps (Camelot.Cluster.Group_commit { window_ms = 0.0 });
            adaptive_tps = tps Camelot.Cluster.Adaptive;
          })
        sweep_workers)
    site_range

let run ?horizon_ms () =
  let points = collect ?horizon_ms () in
  List.iter
    (fun sites ->
      let rows =
        List.filter (fun p -> p.sweep_sites = sites) points
      in
      Report.header
        (Printf.sprintf
           "Logger bottleneck: %d sites, closed-loop Table-3 mix (TPS by \
            write-out policy)"
           sites);
      Report.table
        ~columns:
          [ "WORKERS/SITE"; "naive"; "fixed window"; "adaptive daemon" ]
        (List.map
           (fun p ->
             [
               string_of_int p.sweep_workers;
               Printf.sprintf "%.1f" p.naive_tps;
               Printf.sprintf "%.1f" p.fixed_tps;
               Printf.sprintf "%.1f" p.adaptive_tps;
             ])
           rows);
      let peak f = List.fold_left (fun acc p -> max acc (f p)) 0.0 rows in
      Printf.printf
        "Peak TPS at %d sites: naive %.1f, fixed %.1f, adaptive %.1f.\n" sites
        (peak (fun p -> p.naive_tps))
        (peak (fun p -> p.fixed_tps))
        (peak (fun p -> p.adaptive_tps)))
    site_range;
  points
