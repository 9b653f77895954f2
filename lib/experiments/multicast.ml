open Camelot_sim

let subordinates = 3

let run ?(reps = 300) () =
  let measure multicast =
    Workload.minimal_transactions ~multicast
      ~protocol:Camelot_core.Protocol.Two_phase
      ~variant:Workload.Optimized_write ~subordinates ~reps ()
  in
  let unicast_r = measure false in
  let mcast_r = measure true in
  let unicast = unicast_r.Workload.total and mcast = mcast_r.Workload.total in
  Report.header
    (Printf.sprintf "§4.2/§6: Multicast vs serialized sends (%d subordinates)"
       subordinates);
  Report.table
    ~columns:[ "FAN-OUT"; "MEAN (ms)"; "STD DEV (ms)" ]
    [
      [ "serialized unicasts"; Report.f1 unicast.Stats.mean; Report.f1 unicast.Stats.stddev ];
      [ "multicast"; Report.f1 mcast.Stats.mean; Report.f1 mcast.Stats.stddev ];
    ];
  Printf.printf
    "variance change: %+.0f%%  mean change: %+.0f%%  (paper: variance down\n\
     substantially, latency roughly unchanged)\n"
    (100.0 *. ((mcast.Stats.stddev /. unicast.Stats.stddev) -. 1.0))
    (100.0 *. ((mcast.Stats.mean /. unicast.Stats.mean) -. 1.0));
  Format.printf "@.latency distribution, serialized unicasts:@.%a"
    (Stats.pp_histogram ~buckets:8) unicast_r.Workload.total_samples;
  Format.printf "@.latency distribution, multicast (tail clipped):@.%a"
    (Stats.pp_histogram ~buckets:8) mcast_r.Workload.total_samples
