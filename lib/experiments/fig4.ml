let configs = [ (1, false); (5, false); (20, false); (20, true) ]

let pairs_range = [ 1; 2; 3; 4 ]

let collect ?(horizon_ms = 60_000.0) () =
  List.concat_map
    (fun (threads, group_commit) ->
      List.map
        (fun pairs ->
          Workload.throughput ~update_fraction:1.0 ~pairs ~threads
            ~group_commit ~horizon_ms ())
        pairs_range)
    configs

let label threads group_commit =
  if group_commit then Printf.sprintf "group commit (%d thr)" threads
  else Printf.sprintf "%d thread%s" threads (if threads = 1 then "" else "s")

let print_rows title rows =
  Report.header title;
  Report.table
    ~columns:("CONFIG" :: List.map (Printf.sprintf "%d pairs") pairs_range)
    (List.map
       (fun (threads, gc) ->
         label threads gc
         :: List.map
              (fun pairs ->
                match
                  List.find_opt
                    (fun (r : Workload.throughput_result) ->
                      r.Workload.pairs = pairs && r.Workload.threads = threads
                      && r.Workload.group_commit = gc)
                    rows
                with
                | Some r -> Printf.sprintf "%.1f" r.Workload.tps
                | None -> "-")
              pairs_range)
       configs)

let run ?horizon_ms () =
  let rows = collect ?horizon_ms () in
  print_rows "Figure 4: Update Transaction Throughput (app/server pairs vs TPS, VAX)" rows;
  print_endline
    "Paper's anchors: ~6-10 TPS; 1 thread flat; 20 threads ~= 5 threads\n\
     (the logger is the bottleneck); group commit on top."
