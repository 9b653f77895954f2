(* Regression tests over the experiment harness itself: run each
   reproduced artifact at reduced size and assert the paper's *shape*
   claims hold — so a change that silently breaks a result fails
   `dune runtest`, not just a human reading bench output. *)

open Camelot_experiments

let mean (s : Camelot_sim.Stats.summary) = s.Camelot_sim.Stats.mean
let sd (s : Camelot_sim.Stats.summary) = s.Camelot_sim.Stats.stddev

(* --- Figure 2 ------------------------------------------------------- *)

let fig2_rows = lazy (Fig2.collect ~reps:50 ())

let fig2 subs variant =
  let rows = Lazy.force fig2_rows in
  (List.find
     (fun r -> r.Fig2.subordinates = subs && r.Fig2.variant = variant)
     rows)
    .Fig2.result

let test_fig2_reads_cheaper () =
  List.iter
    (fun subs ->
      let w = mean (fig2 subs Workload.Optimized_write).Workload.total in
      let r = mean (fig2 subs Workload.Read_only).Workload.total in
      Alcotest.(check bool)
        (Printf.sprintf "read < write at %d subs (%.1f < %.1f)" subs r w)
        true (r < w))
    [ 0; 1; 2; 3 ]

let test_fig2_latency_rises_with_subordinates () =
  let totals =
    List.map (fun s -> mean (fig2 s Workload.Optimized_write).Workload.total) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "monotone" true
    (List.sort compare totals = totals)

let test_fig2_variance_rises_with_subordinates () =
  let sd0 = sd (fig2 0 Workload.Optimized_write).Workload.total in
  let sd3 = sd (fig2 3 Workload.Optimized_write).Workload.total in
  Alcotest.(check bool)
    (Printf.sprintf "sd at 3 subs (%.1f) >> sd at 0 (%.1f)" sd3 sd0)
    true
    (sd3 > 4.0 *. sd0)

let test_fig2_paper_anchors () =
  let local = mean (fig2 0 Workload.Optimized_write).Workload.total in
  let one_sub = mean (fig2 1 Workload.Optimized_write).Workload.total in
  Alcotest.(check bool)
    (Printf.sprintf "local update near 31 (%.1f)" local)
    true
    (local > 25.0 && local < 38.0);
  Alcotest.(check bool)
    (Printf.sprintf "1-sub update near 110 (%.1f)" one_sub)
    true
    (one_sub > 95.0 && one_sub < 135.0)

let test_fig2_unoptimized_not_faster () =
  (* claim 1: the optimization costs nothing; the unoptimized variant
     must never beat it meaningfully *)
  List.iter
    (fun subs ->
      let opt = mean (fig2 subs Workload.Optimized_write).Workload.total in
      let unopt = mean (fig2 subs Workload.Unoptimized_write).Workload.total in
      Alcotest.(check bool)
        (Printf.sprintf "unopt (%.1f) >= opt (%.1f) - 5%% at %d subs" unopt opt subs)
        true
        (unopt >= opt *. 0.95))
    [ 1; 2; 3 ]

(* --- Figure 3 ------------------------------------------------------- *)

let fig3_rows = lazy (Fig3.collect ~reps:50 ())

let test_fig3_nb_costlier_but_less_than_twice () =
  List.iter
    (fun subs ->
      let r = List.find (fun r -> r.Fig3.subordinates = subs) (Lazy.force fig3_rows) in
      let nb = mean r.Fig3.write.Workload.total in
      let tp = mean r.Fig3.two_phase_write.Workload.total in
      let ratio = nb /. tp in
      Alcotest.(check bool)
        (Printf.sprintf "1 < NB/2PC (%.2f) < 2 at %d subs" ratio subs)
        true
        (ratio > 1.1 && ratio < 2.0))
    [ 1; 2; 3 ]

let test_fig3_read_equals_2pc () =
  let r = List.find (fun r -> r.Fig3.subordinates = 2) (Lazy.force fig3_rows) in
  let nb_read = mean r.Fig3.read.Workload.total in
  let tp_read = mean (fig2 2 Workload.Read_only).Workload.total in
  Alcotest.(check bool)
    (Printf.sprintf "NB read (%.1f) within 10%% of 2PC read (%.1f)" nb_read tp_read)
    true
    (abs_float (nb_read -. tp_read) < 0.1 *. tp_read)

(* --- Figures 4 and 5 ------------------------------------------------ *)

let test_fig4_shapes () =
  let tps threads gc pairs =
    (Workload.throughput ~update_fraction:1.0 ~pairs ~threads
       ~group_commit:gc ~horizon_ms:20_000.0 ())
      .Workload.tps
  in
  let one_thread = List.map (tps 1 false) [ 1; 4 ] in
  (match one_thread with
  | [ a; b ] ->
      Alcotest.(check bool)
        (Printf.sprintf "1-thread flat (%.1f vs %.1f)" a b)
        true
        (abs_float (b -. a) < 1.5)
  | _ -> assert false);
  let five = tps 5 false 4 in
  let twenty = tps 20 false 4 in
  let gc = tps 20 true 4 in
  let one = tps 1 false 4 in
  Alcotest.(check bool)
    (Printf.sprintf "threads help updates only so far (1thr %.1f < 5thr %.1f)" one five)
    true (five > one +. 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "20 threads ~= 5 threads (%.1f vs %.1f): logger-bound" twenty five)
    true
    (abs_float (twenty -. five) < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "group commit on top (%.1f > %.1f)" gc five)
    true (gc > five +. 1.0)

let test_fig5_saturation () =
  let tps threads pairs =
    (Workload.throughput ~update_fraction:0.0 ~pairs ~threads
       ~group_commit:false ~horizon_ms:20_000.0 ())
      .Workload.tps
  in
  let p1 = tps 20 1 and p4 = tps 20 4 in
  Alcotest.(check bool)
    (Printf.sprintf "reads saturate (4 pairs %.1f < 2.5x 1 pair %.1f)" p4 p1)
    true
    (p4 < 2.5 *. p1);
  Alcotest.(check bool)
    (Printf.sprintf "read TPS in paper's band (%.1f in 15..45)" p4)
    true
    (p4 > 15.0 && p4 < 45.0)

(* --- multicast ------------------------------------------------------ *)

let test_multicast_reduces_variance () =
  let measure multicast =
    (Workload.minimal_transactions ~multicast
       ~protocol:Camelot_core.Protocol.Two_phase
       ~variant:Workload.Optimized_write ~subordinates:3 ~reps:120 ())
      .Workload.total
  in
  let u = measure false and m = measure true in
  Alcotest.(check bool)
    (Printf.sprintf "sd down (%.1f -> %.1f)" (sd u) (sd m))
    true
    (sd m < sd u);
  Alcotest.(check bool)
    (Printf.sprintf "mean roughly unchanged (%.1f vs %.1f)" (mean u) (mean m))
    true
    (abs_float (mean m -. mean u) < 0.15 *. mean u)

(* --- extension claims, on the goldens' own runs --------------------- *)

let claim msg ok = Alcotest.(check bool) msg true ok

let rec ascending f = function
  | a :: (b :: _ as rest) -> f a < f b && ascending f rest
  | [ _ ] | [] -> true

(* The runs behind shootout.expected: `camelot_sim shootout`. *)
let shootout_rows = lazy (Shootout.collect ())

let shootout name =
  List.find (fun r -> r.Shootout.sh_name = name) (Lazy.force shootout_rows)

let msgs name = (shootout name).Shootout.sh_msgs_per_txn

let test_shootout_no_aborts () =
  List.iter
    (fun r -> Alcotest.(check int) (r.Shootout.sh_name ^ " aborts") 0 r.Shootout.sh_aborted)
    (Lazy.force shootout_rows)

let test_shootout_message_order () =
  let order = [ "short-commit"; "2pc"; "nonblocking"; "paxos F=1" ] in
  claim
    (String.concat " < " (List.map (fun n -> Printf.sprintf "%s %.2f" n (msgs n)) order))
    (ascending msgs order)

let test_shootout_paxos_f0_rides_2pc () =
  let pax = msgs "paxos F=0" and two = msgs "2pc" in
  claim
    (Printf.sprintf "Paxos F=0 %.2f within 0.1 of 2PC %.2f msgs/txn" pax two)
    (abs_float (pax -. two) < 0.1)

let test_shootout_nb_latency_ratio () =
  let mean name = (shootout name).Shootout.sh_mean_ms in
  let ratio = mean "nonblocking" /. mean "2pc" in
  claim (Printf.sprintf "1 < NB/2PC mean latency (%.2f) < 2" ratio) (ratio > 1.0 && ratio < 2.0)

(* The runs behind logger_sweep_20s.expected:
   `camelot_sim logger-sweep --horizon 20000`. *)
let sweep_points = lazy (Logger_sweep.collect ~horizon_ms:20_000.0 ())

let sweep_at sites =
  List.filter (fun p -> p.Logger_sweep.sweep_sites = sites) (Lazy.force sweep_points)

let peak tps points = List.fold_left (fun acc p -> max acc (tps p)) 0.0 points

let test_sweep_adaptive_never_slower () =
  List.iter
    (fun (p : Logger_sweep.point) ->
      claim
        (Printf.sprintf "%d sites x %d workers: adaptive %.1f >= naive %.1f, fixed %.1f"
           p.sweep_sites p.sweep_workers p.adaptive_tps p.naive_tps p.fixed_tps)
        (p.adaptive_tps >= p.naive_tps && p.adaptive_tps >= p.fixed_tps))
    (Lazy.force sweep_points)

let test_sweep_fixed_peak_beats_naive () =
  List.iter
    (fun sites ->
      let naive = peak (fun p -> p.Logger_sweep.naive_tps) (sweep_at sites) in
      let fixed = peak (fun p -> p.Logger_sweep.fixed_tps) (sweep_at sites) in
      claim
        (Printf.sprintf "%d sites: fixed peak %.1f > naive peak %.1f" sites fixed naive)
        (fixed > naive))
    Logger_sweep.site_range

(* Past its knee the naive logger loses throughput: added workers only
   queue on the serial platter. *)
let test_sweep_naive_falls_past_knee () =
  let points = sweep_at 2 in
  let knee = peak (fun p -> p.Logger_sweep.naive_tps) points in
  let last = (List.nth points (List.length points - 1)).Logger_sweep.naive_tps in
  claim
    (Printf.sprintf "2-site naive falls from its peak %.1f to %.1f" knee last)
    (last < 0.9 *. knee)

(* The run behind open_loop.expected: `camelot_sim open-loop`. *)
let open_loop_points = lazy (Open_loop.collect ())

let at_load tps =
  List.find (fun p -> p.Open_loop.offered_tps = tps) (Lazy.force open_loop_points)

let open_loop_knee () =
  Option.map
    (fun p -> p.Open_loop.offered_tps)
    (Open_loop.knee (Lazy.force open_loop_points))

let column f =
  String.concat ", "
    (List.map
       (fun p -> Printf.sprintf "%.0f: %.1f" p.Open_loop.offered_tps (f p))
       (Lazy.force open_loop_points))

let test_open_loop_knee () =
  claim
    (Printf.sprintf "knee at 400 offered tps (backlog %s)"
       (column (fun p -> float_of_int p.Open_loop.backlog)))
    (open_loop_knee () = Some 400.0)

let test_open_loop_p99_rises () =
  let p99 p = p.Open_loop.p99_ms in
  claim
    (Printf.sprintf "p99 rises at every load (%s)" (column p99))
    (ascending p99 (Lazy.force open_loop_points));
  let low = p99 (at_load 100.0) and high = p99 (at_load 1600.0) in
  claim
    (Printf.sprintf "p99 %.1f -> %.1f ms from 100 to 1600 tps, more than 5x" low high)
    (high > 5.0 *. low)

let test_open_loop_aborts_rise () =
  let abort_pct p = 100.0 *. p.Open_loop.abort_rate in
  claim
    (Printf.sprintf "abort %% rises at every load (%s)" (column abort_pct))
    (ascending abort_pct (Lazy.force open_loop_points))

(* Past the knee the queues grow but shed nothing: completions hold a
   plateau rather than collapse. *)
let test_open_loop_plateau () =
  let points = Lazy.force open_loop_points in
  let top = peak (fun p -> p.Open_loop.completed_tps) points in
  match open_loop_knee () with
  | None -> claim "the sweep has a knee" false
  | Some knee ->
      List.iter
        (fun (p : Open_loop.point) ->
          if p.offered_tps >= knee then
            claim
              (Printf.sprintf "%.0f tps completes %.1f, at least 80%% of peak %.1f"
                 p.offered_tps p.completed_tps top)
              (p.completed_tps >= 0.8 *. top))
        points

(* --- workload sanity ------------------------------------------------ *)

let test_mixed_fraction_interpolates () =
  let tps f =
    (Workload.throughput ~update_fraction:f ~pairs:4 ~threads:20
       ~group_commit:false ~horizon_ms:20_000.0 ())
      .Workload.tps
  in
  let reads = tps 0.0 and mixed = tps 0.5 and updates = tps 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "reads (%.1f) > mixed (%.1f) > updates (%.1f)" reads mixed updates)
    true
    (reads > mixed && mixed > updates)

let () =
  Alcotest.run "camelot_experiments"
    [
      ( "fig2",
        [
          Alcotest.test_case "reads cheaper than writes" `Slow test_fig2_reads_cheaper;
          Alcotest.test_case "latency rises with subordinates" `Slow
            test_fig2_latency_rises_with_subordinates;
          Alcotest.test_case "variance rises with subordinates" `Slow
            test_fig2_variance_rises_with_subordinates;
          Alcotest.test_case "paper anchors" `Slow test_fig2_paper_anchors;
          Alcotest.test_case "optimization costs nothing" `Slow
            test_fig2_unoptimized_not_faster;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "NB dearer, less than 2x" `Slow
            test_fig3_nb_costlier_but_less_than_twice;
          Alcotest.test_case "NB read = 2PC read" `Slow test_fig3_read_equals_2pc;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "Figure 4 shapes" `Slow test_fig4_shapes;
          Alcotest.test_case "Figure 5 saturation" `Slow test_fig5_saturation;
          Alcotest.test_case "mixed fraction interpolates" `Slow
            test_mixed_fraction_interpolates;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "variance reduction" `Slow test_multicast_reduces_variance;
        ] );
      ( "claims",
        [
          Alcotest.test_case "shootout: no protocol aborts" `Slow
            test_shootout_no_aborts;
          Alcotest.test_case "shootout: msgs/txn order" `Slow
            test_shootout_message_order;
          Alcotest.test_case "shootout: Paxos F=0 rides 2PC" `Slow
            test_shootout_paxos_f0_rides_2pc;
          Alcotest.test_case "shootout: NB/2PC latency in (1, 2)" `Slow
            test_shootout_nb_latency_ratio;
          Alcotest.test_case "logger sweep: adaptive never slower" `Slow
            test_sweep_adaptive_never_slower;
          Alcotest.test_case "logger sweep: fixed peak beats naive" `Slow
            test_sweep_fixed_peak_beats_naive;
          Alcotest.test_case "logger sweep: naive falls past its knee" `Slow
            test_sweep_naive_falls_past_knee;
          Alcotest.test_case "open loop: knee at 400 tps" `Slow test_open_loop_knee;
          Alcotest.test_case "open loop: p99 rises, 5x over the sweep" `Slow
            test_open_loop_p99_rises;
          Alcotest.test_case "open loop: abort rate rises" `Slow
            test_open_loop_aborts_rise;
          Alcotest.test_case "open loop: plateau past the knee" `Slow
            test_open_loop_plateau;
        ] );
    ]
