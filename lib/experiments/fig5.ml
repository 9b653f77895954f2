let thread_configs = [ 1; 5; 20 ]

let pairs_range = [ 1; 2; 3; 4 ]

let collect ?(horizon_ms = 60_000.0) () =
  List.concat_map
    (fun threads ->
      List.map
        (fun pairs ->
          Workload.throughput ~update_fraction:0.0 ~pairs ~threads
            ~group_commit:false ~horizon_ms ())
        pairs_range)
    thread_configs

let run ?horizon_ms () =
  let rows = collect ?horizon_ms () in
  Report.header "Figure 5: Read Transaction Throughput (app/server pairs vs TPS, VAX)";
  Report.table
    ~columns:("CONFIG" :: List.map (Printf.sprintf "%d pairs") pairs_range)
    (List.map
       (fun threads ->
         Printf.sprintf "%d thread%s" threads (if threads = 1 then "" else "s")
         :: List.map
              (fun pairs ->
                match
                  List.find_opt
                    (fun (r : Workload.throughput_result) ->
                      r.Workload.pairs = pairs && r.Workload.threads = threads)
                    rows
                with
                | Some r -> Printf.sprintf "%.1f" r.Workload.tps
                | None -> "-")
              pairs_range)
       thread_configs);
  print_endline
    "Paper's anchors: ~22-36 TPS; 1 thread saturates past 2 clients;\n\
     5/20 threads somewhat better; reads gain more than updates from the\n\
     second client (52% vs 32% in the paper)."
