(* Command-line front end: run any of the paper's experiments
   individually, with adjustable repetition counts. *)

open Cmdliner

(* Counts and durations must be positive (durations also finite): a
   zero horizon divides by zero into nan rows, a zero site count
   raises. A bad value is a usage error, exit 124. *)
let positive base ~what ~ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let pos_int = positive Arg.int ~what:"a positive integer" ~ok:(fun n -> n > 0)

let pos_float =
  positive Arg.float ~what:"a positive finite number" ~ok:(fun x ->
      x > 0.0 && Float.is_finite x)

(* The latency experiments drop their first warm-up repetitions, so a
   count at or below it measures nothing: zero tables, or a crash on an
   empty sample. *)
let reps =
  let warmup = Camelot_experiments.Workload.warmup in
  let doc = Printf.sprintf "Repetitions for latency experiments (above %d)." warmup in
  let above = Printf.sprintf "an integer above %d" warmup in
  let reps = positive Arg.int ~what:above ~ok:(fun n -> n > warmup) in
  Arg.(value & opt reps 150 & info [ "reps" ] ~docv:"N" ~doc)

let horizon =
  let doc = "Virtual milliseconds per throughput run." in
  Arg.(value & opt pos_float 60_000.0 & info [ "horizon" ] ~docv:"MS" ~doc)

let experiment name summary f =
  let doc = summary in
  Cmd.v (Cmd.info name ~doc) f

let simple name summary run = experiment name summary Term.(const run $ const ())

let with_reps name summary run =
  experiment name summary Term.(const (fun reps () -> run ~reps ()) $ reps $ const ())

let with_horizon name summary run =
  experiment name summary
    Term.(const (fun horizon_ms () -> run ~horizon_ms ()) $ horizon $ const ())

let all_cmd =
  let run reps horizon_ms () =
    Camelot_experiments.Table1.run ();
    Camelot_experiments.Table2.run ~reps ();
    Camelot_experiments.Rpc_breakdown.run ~reps:(reps * 4) ();
    Camelot_experiments.Fig2.run ~reps ();
    Camelot_experiments.Table3.run ~reps ();
    Camelot_experiments.Fig3.run ~reps ();
    Camelot_experiments.Fig4.run ~horizon_ms ();
    Camelot_experiments.Fig5.run ~horizon_ms ();
    Camelot_experiments.Multicast.run ~reps:(reps * 2) ();
    Camelot_experiments.Ablations.run ~reps:(max 20 (reps / 2)) ()
  in
  experiment "all" "Run every table, figure and ablation."
    Term.(const run $ reps $ horizon $ const ())

let chaos_cmd =
  let budget =
    let doc = "Fault schedules to run, shrinking runs included." in
    Arg.(value & opt pos_int 1200 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Seed for the search's corpus picks and mutations." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let schedule =
    let doc =
      "Replay one schedule token (as printed for a failure, e.g. \
       pair-2pc:crash@sub.prepare.forced/1#1) instead of exploring."
    in
    Arg.(value & opt (some string) None & info [ "schedule" ] ~docv:"TOKEN" ~doc)
  in
  let workload =
    let doc = "Restrict exploration to one workload." in
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc)
  in
  let inject_bug =
    let doc =
      "Deliberately skip forcing the subordinate's prepare record (a real \
       durability bug) to prove the oracles catch it."
    in
    Arg.(value & flag & info [ "inject-bug" ] ~doc)
  in
  let corpus =
    let doc =
      "Corpus directory: schedules that grew coverage are persisted here \
       and reloaded on the next run."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let jobs =
    let doc =
      "Parallel search jobs, one OCaml domain each. The budget is split \
       across jobs; a shared --corpus merges their finds by coverage \
       signature."
    in
    Arg.(value & opt pos_int 1 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let run budget seed schedule workload inject_bug corpus jobs () =
    let open Camelot_chaos_explorer in
    let mutate_config c =
      if inject_bug then c.Camelot_core.State.unsafe_skip_prepare_force <- true
    in
    match schedule with
    | Some token -> (
        match Schedule.of_string token with
        | None ->
            prerr_endline ("chaos: cannot parse schedule token: " ^ token);
            exit 2
        | Some s ->
            let r = Explorer.run_schedule ~mutate_config s in
            Printf.printf "chaos: coverage %d tuples, signature %s\n"
              (List.length r.Explorer.rr_tuples)
              (Camelot_chaos_explorer.Coverage.short r.Explorer.rr_signature);
            if r.Explorer.rr_violations = [] then
              print_endline ("chaos: clean run: " ^ Schedule.to_string s)
            else begin
              print_endline ("chaos: VIOLATIONS for " ^ Schedule.to_string s);
              List.iter
                (fun v -> Format.printf "  %a@." Oracle.pp_violation v)
                r.Explorer.rr_violations;
              exit 1
            end)
    | None ->
        let workloads = Option.map (fun w -> [ w ]) workload in
        let progress n total =
          if n mod 100 = 0 then Printf.eprintf "chaos: %d/%d schedules\n%!" n total
        in
        let r =
          Explorer.fuzz ~mutate_config ~budget ~seed ~jobs ?corpus_dir:corpus
            ?workloads ~progress ()
        in
        Format.printf "%a" Explorer.pp_report r;
        if inject_bug then begin
          (* inverted mode: the run succeeds iff the bug is caught *)
          if r.Explorer.rp_failures = [] then begin
            print_endline "chaos: injected bug was NOT caught";
            exit 1
          end
          else print_endline "chaos: injected bug caught, as it should be"
        end
        else if r.Explorer.rp_failures <> [] then exit 1
        else if workload <> None then
          (* the coverage checks below hold for the default pool only:
             one workload cannot reach every fault point *)
          ()
        else if r.Explorer.rp_missing <> [] then begin
          print_endline "chaos: some registered fault points were never exercised";
          exit 1
        end
        else if
          (* the default pool must include at least one multi-shot run,
             so cross-transaction recovery states stay exercised *)
          not
            (List.exists
               (fun (name, n) ->
                 String.length name >= 9
                 && String.sub name 0 9 = "multishot"
                 && n > 0)
               r.Explorer.rp_workload_runs)
        then begin
          print_endline "chaos: no multi-shot schedule was run";
          exit 1
        end
  in
  experiment "chaos"
    "Coverage-guided fault-schedule explorer with AC1-AC5 oracles."
    Term.(
      const run $ budget $ seed $ schedule $ workload $ inject_bug $ corpus
      $ jobs $ const ())

let cmds =
  [
    chaos_cmd;
    simple "table1" "Table 1: PC-RT and Mach benchmarks (calibration)."
      Camelot_experiments.Table1.run;
    with_reps "table2" "Table 2: latency of Camelot primitives."
      (fun ~reps () -> Camelot_experiments.Table2.run ~reps ());
    with_reps "table3" "Table 3: static vs empirical latency breakdown."
      (fun ~reps () -> Camelot_experiments.Table3.run ~reps ());
    with_reps "fig2" "Figure 2: two-phase commit latency vs subordinates."
      (fun ~reps () -> Camelot_experiments.Fig2.run ~reps ());
    with_reps "fig3" "Figure 3: non-blocking commit latency vs subordinates."
      (fun ~reps () -> Camelot_experiments.Fig3.run ~reps ());
    with_horizon "fig4" "Figure 4: update transaction throughput (VAX)."
      (fun ~horizon_ms () -> Camelot_experiments.Fig4.run ~horizon_ms ());
    with_horizon "fig5" "Figure 5: read transaction throughput (VAX)."
      (fun ~horizon_ms () -> Camelot_experiments.Fig5.run ~horizon_ms ());
    with_reps "rpc" "Section 4.1: RPC latency decomposition."
      (fun ~reps () -> Camelot_experiments.Rpc_breakdown.run ~reps ());
    with_reps "multicast" "Section 4.2/6: multicast variance reduction."
      (fun ~reps () -> Camelot_experiments.Multicast.run ~reps ());
    with_reps "ablations" "Ablations: §3.2 variants, read-only opt, quorums, batching window."
      (fun ~reps () -> Camelot_experiments.Ablations.run ~reps ());
    with_horizon "logger-sweep"
      "Logger bottleneck: naive vs fixed-window vs adaptive-daemon write-out."
      (fun ~horizon_ms () ->
        ignore
          (Camelot_experiments.Logger_sweep.run ~horizon_ms ()
            : Camelot_experiments.Logger_sweep.point list));
    (let sites =
       let doc = "Simulated sites driven by the generator." in
       Arg.(value & opt pos_int 24 & info [ "sites" ] ~docv:"N" ~doc)
     in
     let mix =
       let doc = "Transaction mix: debit-credit or read-mostly." in
       Arg.(
         value
         & opt
             (enum
                [
                  ("debit-credit", Camelot_experiments.Open_loop.Debit_credit);
                  ("read-mostly", Camelot_experiments.Open_loop.Read_mostly);
                ])
             Camelot_experiments.Open_loop.Debit_credit
         & info [ "mix" ] ~docv:"MIX" ~doc)
     in
     let loads =
       let doc = "Offered loads to sweep, in transactions/second." in
       Arg.(
         value
         & opt (some (list pos_float)) None
         & info [ "loads" ] ~docv:"TPS,..." ~doc)
     in
     let ol_horizon =
       let doc = "Virtual milliseconds per sweep point." in
       Arg.(value & opt pos_float 5_000.0 & info [ "horizon" ] ~docv:"MS" ~doc)
     in
     experiment "open-loop"
       "Open-loop sweep: Poisson arrivals, Zipf keys, queue-sharded \
        execution; p50/p99/p999, abort rate, saturation knee."
       Term.(
         const (fun sites mix loads horizon_ms () ->
             ignore
               (Camelot_experiments.Open_loop.run ~sites ~mix ?loads ~horizon_ms ()
                 : Camelot_experiments.Open_loop.point list))
         $ sites $ mix $ loads $ ol_horizon $ const ()));
    (let sh_sites =
       let doc = "Sites per cluster (every transaction updates all of them)." in
       Arg.(value & opt pos_int 3 & info [ "sites" ] ~docv:"N" ~doc)
     in
     let workers =
       let doc = "Closed-loop workers per site." in
       Arg.(value & opt pos_int 2 & info [ "workers" ] ~docv:"N" ~doc)
     in
     let sh_horizon =
       let doc = "Virtual milliseconds per protocol run." in
       Arg.(value & opt pos_float 20_000.0 & info [ "horizon" ] ~docv:"MS" ~doc)
     in
     experiment "shootout"
       "Four-way commit-protocol shootout: 2PC, non-blocking, Paxos Commit \
        (F=0/F=1), short-commit; latency, abort rate, messages/txn."
       Term.(
         const (fun sites workers_per_site horizon_ms () ->
             ignore
               (Camelot_experiments.Shootout.run ~sites ~workers_per_site
                  ~horizon_ms ()
                 : Camelot_experiments.Shootout.row list))
         $ sh_sites $ workers $ sh_horizon $ const ()));
    (let records =
       let doc = "Log records to replay per partition count." in
       Arg.(value & opt pos_int 100_000 & info [ "records" ] ~docv:"N" ~doc)
     in
     experiment "recovery-sweep"
       "Recovery scaling: parallel replay partitioned by key hash at 1/2/4/8 \
        partitions."
       Term.(
         const (fun records () ->
             ignore
               (Camelot_experiments.Recovery_sweep.run ~records ()
                 : Camelot_experiments.Recovery_sweep.point list))
         $ records $ const ()));
    all_cmd;
  ]

let () =
  let doc = "Reproduction of 'Analysis of Transaction Management Performance' (SOSP 1989)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "camelot-sim" ~doc) cmds))
