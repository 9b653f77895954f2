(* Tests for the open-loop traffic generator: the Poisson arrivals,
   the Zipf key skew, the transaction mixes and the tail histogram are
   each checked in isolation (they are pure functions of the rng
   stream), then one small end-to-end sweep point sanity-checks the
   plumbing. Everything is deterministic under the fixed seeds. *)

open Camelot_sim
open Camelot_experiments.Open_loop

let rng seed = Rng.create ~seed

(* ------------------------------------------------------------------ *)
(* Arrivals *)

let test_poisson_mean_rate () =
  (* 200 tps over 60 virtual seconds: ~12_000 arrivals, mean
     inter-arrival 5 ms. A 3% band is ~5 sigma at this sample size. *)
  let times = arrival_times ~rate_tps:200.0 ~rng:(rng 11) ~horizon_ms:60_000.0 in
  let n = List.length times in
  Alcotest.(check bool) "count near rate*horizon"
    true (abs (n - 12_000) < 360);
  let rec gaps acc prev = function
    | [] -> acc
    | t :: rest -> gaps ((t -. prev) :: acc) t rest
  in
  let g = gaps [] 0.0 times in
  let mean = List.fold_left ( +. ) 0.0 g /. float_of_int (List.length g) in
  Alcotest.(check bool) "mean inter-arrival near 5ms"
    true (Float.abs (mean -. 5.0) < 0.15)

let test_poisson_ascending_in_horizon () =
  let times = arrival_times ~rate_tps:500.0 ~rng:(rng 3) ~horizon_ms:2_000.0 in
  let ok = ref true and prev = ref 0.0 in
  List.iter
    (fun t ->
      if t < !prev || t < 0.0 || t >= 2_000.0 then ok := false;
      prev := t)
    times;
  Alcotest.(check bool) "ascending, within [0,horizon)" true !ok

let test_arrivals_deterministic () =
  let a = arrival_times ~rate_tps:300.0 ~rng:(rng 5) ~horizon_ms:10_000.0 in
  let b = arrival_times ~rate_tps:300.0 ~rng:(rng 5) ~horizon_ms:10_000.0 in
  let c = arrival_times ~rate_tps:300.0 ~rng:(rng 6) ~horizon_ms:10_000.0 in
  Alcotest.(check (list (float 0.0))) "same seed, same arrivals" a b;
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_arrivals_rejects_bad_args () =
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Open_loop.arrival_times: rate must be positive")
    (fun () ->
      ignore (arrival_times ~rate_tps:0.0 ~rng:(rng 1) ~horizon_ms:100.0 : float list))

(* ------------------------------------------------------------------ *)
(* Key skew and transaction mixes *)

let test_zipf_ranking_monotone () =
  (* empirical frequency must fall as rank rises: rank 0 is the hottest
     key, and each rank draws at least as often as the one below it
     (200k draws keeps adjacent-rank noise well under the gap) *)
  let n = 16 in
  let z = Rng.Zipf.create ~n ~theta:0.99 in
  Alcotest.(check int) "size" n (Rng.Zipf.size z);
  let r = rng 23 in
  let counts = Array.make n 0 in
  for _ = 1 to 200_000 do
    let k = Rng.Zipf.draw z r in
    counts.(k) <- counts.(k) + 1
  done;
  for i = 0 to n - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "rank %d drawn more than rank %d" i (i + 1))
      true
      (counts.(i) >= counts.(i + 1))
  done;
  (* and the skew is real: the hottest key dominates the coldest *)
  Alcotest.(check bool) "hot key dominates" true
    (counts.(0) > 5 * counts.(n - 1))

let test_mix_ratios () =
  let z = Rng.Zipf.create ~n:64 ~theta:0.99 in
  let r = rng 31 in
  let draws = 50_000 in
  let remote = ref 0 in
  for _ = 1 to draws do
    match sample_txn Debit_credit z r with
    | Transfer { remote = true; _ } -> incr remote
    | Transfer _ -> ()
    | Lookup _ | Deposit _ -> Alcotest.fail "debit/credit drew a read-mostly txn"
  done;
  let frac = float_of_int !remote /. float_of_int draws in
  Alcotest.(check bool) "10% of transfers are remote" true
    (Float.abs (frac -. 0.1) < 0.01);
  let lookups = ref 0 in
  for _ = 1 to draws do
    match sample_txn Read_mostly z r with
    | Lookup _ -> incr lookups
    | Deposit _ -> ()
    | Transfer _ -> Alcotest.fail "read-mostly drew a transfer"
  done;
  let frac = float_of_int !lookups /. float_of_int draws in
  Alcotest.(check bool) "90% of read-mostly are lookups" true
    (Float.abs (frac -. 0.9) < 0.01)

(* ------------------------------------------------------------------ *)
(* Knee detection *)

let synthetic ~offered ~arrivals ~backlog =
  {
    offered_tps = offered;
    arrivals;
    committed = arrivals - backlog;
    aborted = 0;
    backlog;
    completed_tps = 0.0;
    abort_rate = 0.0;
    mean_ms = 0.0;
    p50_ms = 0.0;
    p99_ms = 0.0;
    p999_ms = 0.0;
    max_shard_depth = 0;
  }

let test_knee_detection () =
  (* below the knee the backlog is only the end-of-horizon effect;
     the knee is the first point leaving >10% unfinished *)
  let points =
    [
      synthetic ~offered:100.0 ~arrivals:1_000 ~backlog:20;
      synthetic ~offered:200.0 ~arrivals:2_000 ~backlog:80;
      synthetic ~offered:400.0 ~arrivals:4_000 ~backlog:900;
      synthetic ~offered:800.0 ~arrivals:8_000 ~backlog:6_000;
    ]
  in
  (match knee points with
  | Some p -> Alcotest.(check (float 0.0)) "knee at 400" 400.0 p.offered_tps
  | None -> Alcotest.fail "knee not found");
  Alcotest.(check bool) "no knee when keeping up" true
    (knee [ synthetic ~offered:100.0 ~arrivals:1_000 ~backlog:20 ] = None);
  Alcotest.(check bool) "empty sweep has no knee" true (knee [] = None)

(* ------------------------------------------------------------------ *)
(* End-to-end sweep point *)

let test_run_one_accounts_for_every_arrival () =
  (* a small under-capacity point: every admitted arrival must end up
     committed, aborted, or in the backlog, and the latency histogram
     must have fed the quantiles. Read-mostly keeps hot-key deadlocks
     out of the picture so commits dominate. *)
  let p =
    run_one ~seed:7 ~sites:2 ~mix:Read_mostly ~keys:16 ~rate_tps:20.0
      ~horizon_ms:2_000.0 ()
  in
  Alcotest.(check bool) "some arrivals" true (p.arrivals > 0);
  Alcotest.(check int) "conservation: arrivals = done + backlog"
    p.arrivals
    (p.committed + p.aborted + p.backlog);
  Alcotest.(check bool) "mostly committed" true (p.committed > p.arrivals / 2);
  Alcotest.(check bool) "latency quantiles populated" true
    (p.p50_ms > 0.0 && p.p99_ms >= p.p50_ms && p.p999_ms >= p.p99_ms);
  Alcotest.(check bool) "queues observed" true (p.max_shard_depth >= 0)

let test_run_one_deterministic () =
  let point () =
    run_one ~seed:9 ~sites:2 ~keys:8 ~rate_tps:40.0 ~horizon_ms:1_000.0 ()
  in
  let a = point () and b = point () in
  Alcotest.(check int) "committed equal" a.committed b.committed;
  Alcotest.(check int) "aborted equal" a.aborted b.aborted;
  Alcotest.(check (float 0.0)) "p99 equal" a.p99_ms b.p99_ms

let () =
  Alcotest.run "open_loop"
    [
      ( "arrivals",
        [
          Alcotest.test_case "Poisson mean rate" `Quick test_poisson_mean_rate;
          Alcotest.test_case "ascending within horizon" `Quick
            test_poisson_ascending_in_horizon;
          Alcotest.test_case "deterministic under seed" `Quick
            test_arrivals_deterministic;
          Alcotest.test_case "rejects bad args" `Quick test_arrivals_rejects_bad_args;
        ] );
      ( "mix",
        [
          Alcotest.test_case "Zipf ranking monotone" `Quick test_zipf_ranking_monotone;
          Alcotest.test_case "mix ratios honored" `Quick test_mix_ratios;
        ] );
      ( "knee",
        [ Alcotest.test_case "backlog knee detection" `Quick test_knee_detection ] );
      ( "end_to_end",
        [
          Alcotest.test_case "arrival conservation" `Quick
            test_run_one_accounts_for_every_arrival;
          Alcotest.test_case "point deterministic" `Quick test_run_one_deterministic;
        ] );
    ]
