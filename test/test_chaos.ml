(* Acceptance tests for the fault-schedule explorer: a bounded
   exploration of the real protocols is clean, the whole pipeline is
   deterministic and replayable, a deliberately planted durability bug
   is caught and shrunk to a minimal schedule, the multi-shot chains
   commit fault-free up to the paper's 24 sites, the mutators only emit
   valid replayable tokens, every persisted corpus entry reproduces its
   recorded coverage signature, the smoke run keeps its claims, and a
   detached protocol note allocates nothing. *)

open Camelot_chaos_explorer

let no_mutation (_ : Camelot_core.State.config) = ()

let test_schedule_tokens_round_trip () =
  List.iter
    (fun token ->
      match Schedule.of_string token with
      | None -> Alcotest.failf "token did not parse: %s" token
      | Some s ->
          Alcotest.(check string) "round trip" token (Schedule.to_string s))
    [
      "pair-2pc";
      "trio-nb:crash@nb.takeover.start/2#1";
      "mixed:drop@net.datagram/0#4+isolate@coord.commit.forced/0#1";
      "nested:crash@sub.prepare.forced/1#2+crash@recovery.scan.done/1#1";
    ]

let test_bare_workloads_clean () =
  List.iter
    (fun w ->
      let s = { Schedule.s_workload = w.Workload.w_name; s_injections = [] } in
      let r = Explorer.run_schedule s in
      Alcotest.(check int)
        (w.Workload.w_name ^ " has no violations")
        0
        (List.length r.Explorer.rr_violations))
    Workload.all

(* A bounded search of the real protocols is clean, and it is itself a
   simulation: same seed, same everything. *)
let test_exploration_clean_and_deterministic () =
  let search () = Explorer.fuzz ~budget:300 ~seed:11 () in
  let r1 = search () in
  Alcotest.(check int) "no failing schedules" 0 (List.length r1.Explorer.rp_failures);
  Alcotest.(check int) "budget honoured" 300 r1.Explorer.rp_runs;
  let r2 = search () in
  Alcotest.(check int) "same tuple count" r1.Explorer.rp_tuples
    r2.Explorer.rp_tuples;
  Alcotest.(check bool) "same coverage" true
    (r1.Explorer.rp_coverage = r2.Explorer.rp_coverage);
  Alcotest.(check bool) "same growth curve" true
    (r1.Explorer.rp_growth = r2.Explorer.rp_growth);
  (* full fault-point coverage, the protocol-sibling points included *)
  Alcotest.(check (list string))
    "no registered point left unhit" [] r1.Explorer.rp_missing;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p ^ " covered") true
        (List.mem_assoc p r1.Explorer.rp_coverage))
    [
      "paxos.accept.forced";
      "paxos.ballot.conflict";
      "paxos.takeover.start";
      "short.release.early";
      "coord.votes.collected";
    ]

(* One search under the planted bug backs two cases: the search's own
   verdict here, the replay of its shrunk tokens under "fuzz". The
   knob plants the real bug it exists for: the subordinate's prepare
   record is spooled instead of forced, so a crash after voting yes
   loses the promise and the oracles must see torn commits. *)
let skip_prepare_force c =
  c.Camelot_core.State.unsafe_skip_prepare_force <- true

let planted_bug_search =
  lazy
    (Explorer.fuzz ~mutate_config:skip_prepare_force ~budget:300 ~seed:11
       ~max_failures:3 ())

let test_injected_bug_caught_and_shrunk () =
  let r = Lazy.force planted_bug_search in
  Alcotest.(check bool) "bug caught" true (r.Explorer.rp_failures <> []);
  (* minimality: shrinking must land on a single injection *)
  List.iter
    (fun f ->
      Alcotest.(check int)
        ("shrunk to one injection: "
        ^ Schedule.to_string f.Explorer.fl_shrunk)
        1
        (List.length f.Explorer.fl_shrunk.Schedule.s_injections))
    r.Explorer.rp_failures

(* --- committed replay tokens: paxos takeover and quorum split ----- *)

(* Two schedules found by the explorer and committed here as replayable
   tokens. The first kills the Paxos coordinator the moment its
   prepares are on the wire: the transaction's fate escalates through
   the recovery coordinators (competing ballots included) and must
   still resolve consistently. The second isolates one of the three
   acceptors at its first forced acceptance: the F = 1 quorum of the
   remaining two must carry the decision, and the healed acceptor must
   converge to it. *)
let replay_token ~token ~expect_points () =
  match Schedule.of_string token with
  | None -> Alcotest.failf "token did not parse: %s" token
  | Some s ->
      let r = Explorer.run_schedule s in
      List.iter
        (fun v ->
          Printf.eprintf "%s: [%s] %s\n" token v.Oracle.v_oracle v.Oracle.v_detail)
        r.Explorer.rr_violations;
      Alcotest.(check int) (token ^ " clean") 0
        (List.length r.Explorer.rr_violations);
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s reaches %s" token p)
            true
            (List.exists (fun ((q, _), _) -> q = p) r.Explorer.rr_hits))
        expect_points;
      (* the token replays to the same coverage signature every time *)
      let r2 = Explorer.run_schedule s in
      Alcotest.(check string)
        (token ^ " deterministic")
        r.Explorer.rr_signature r2.Explorer.rr_signature

let test_paxos_takeover_after_coordinator_crash =
  replay_token ~token:"trio-paxos:crash@coord.prepare.sent/0#1"
    ~expect_points:[ "paxos.takeover.start"; "paxos.ballot.conflict" ]

let test_paxos_acceptor_quorum_split =
  replay_token ~token:"trio-paxos:isolate@paxos.accept.forced/2#1"
    ~expect_points:[ "paxos.accept.forced" ]

let test_short_commit_early_release_crash =
  (* kill the short-commit coordinator after the early lock release:
     the always-forced Collecting record plus the presumed-commit abort
     discipline must undo the released writes everywhere *)
  replay_token ~token:"pair-short:crash@short.release.early/0#1"
    ~expect_points:[ "short.release.early" ]

(* Two schedules that lost a committed non-blocking write: a prepared
   participant forced a Refusal while taking over, the other sites'
   commit quorum committed the transaction, and the participant's
   recovery undid its update instead of holding it in doubt. Both end
   with a torn force at site 2 and must replay clean. *)
let test_nb_refused_participant_keeps_committed_write_mixed =
  replay_token
    ~token:
      "mixed:isolate@nb.replication.forced/1#1+drop@net.datagram/1#1+crash@sub.vote.sent/0#1+drop@wal.force.torn/2#5"
    ~expect_points:[ "nb.refusal.forced" ]

let test_nb_refused_participant_keeps_committed_write_trio =
  replay_token
    ~token:
      "trio-nb:isolate@coord.votes.collected/0#1+drop@wal.force.torn/1#6+drop@wal.force.torn/2#5"
    ~expect_points:[ "nb.refusal.forced" ]

(* Shrinking converges on the new protocols too: plant the
   prepare-force bug, find a failing single-injection schedule on the
   short-commit pair, mutate it, and check the shrink lands back on a
   minimal (single-injection) failing token. *)
let test_shrink_converges_on_new_protocols () =
  let mutate_config c =
    c.Camelot_core.State.unsafe_skip_prepare_force <- true
  in
  let run = Explorer.run_schedule ~mutate_config in
  List.iter
    (fun wname ->
      let r0 = run { Schedule.s_workload = wname; s_injections = [] } in
      let pool = Array.of_list (Explorer.singles_for r0.Explorer.rr_hits) in
      let failing =
        Array.to_list pool
        |> List.filter_map (fun inj ->
               let s = { Schedule.s_workload = wname; s_injections = [ inj ] } in
               if (run s).Explorer.rr_violations <> [] then Some s else None)
      in
      Alcotest.(check bool)
        (wname ^ ": planted bug reachable by a single injection")
        true (failing <> []);
      let s = List.hd failing in
      (* widen it, then shrink: must converge back to one injection *)
      let widened =
        { s with Schedule.s_injections = s.Schedule.s_injections @ [ pool.(0) ] }
      in
      let target =
        if (run widened).Explorer.rr_violations <> [] then widened else s
      in
      let shrunk = Explorer.shrink ~run target in
      Alcotest.(check int)
        (wname ^ ": shrunk to one injection: " ^ Schedule.to_string shrunk)
        1
        (List.length shrunk.Schedule.s_injections);
      Alcotest.(check bool)
        (wname ^ ": shrunk token still fails")
        true
        ((run shrunk).Explorer.rr_violations <> []))
    [ "pair-short" ]

(* --- multi-shot workloads ----------------------------------------- *)

(* Fault-free, every shot of every chain must commit — including the
   hidden 24-site paper-scale chain — with the full oracle battery
   (lock hygiene, log discipline, AC1-AC4) silent on every site. *)
let test_multishot_bare () =
  List.iter
    (fun name ->
      let r =
        Explorer.run_schedule { Schedule.s_workload = name; s_injections = [] }
      in
      List.iter
        (fun v -> Printf.eprintf "%s: [%s] %s\n" name v.Oracle.v_oracle v.Oracle.v_detail)
        r.Explorer.rr_violations;
      Alcotest.(check int)
        (name ^ " has no violations")
        0
        (List.length r.Explorer.rr_violations);
      Alcotest.(check bool) (name ^ " ran shots") true (r.Explorer.rr_txns <> []);
      List.iter
        (fun (t : Workload.txn) ->
          Alcotest.(check bool)
            (name ^ ":" ^ t.Workload.x_label ^ " not skipped")
            false
            !(t.Workload.x_skipped);
          Alcotest.(check bool)
            (name ^ ":" ^ t.Workload.x_label ^ " committed")
            true
            (!(t.Workload.x_result) = Some Camelot_core.Protocol.Committed))
        r.Explorer.rr_txns)
    [ "multishot-2pc"; "multishot-nb"; "multishot-dep"; "multishot-24" ]

(* --- mutation engine ---------------------------------------------- *)

let check_valid label = function
  | None -> ()
  | Some (child : Schedule.t) ->
      let token = Schedule.to_string child in
      (match Schedule.of_string token with
      | None -> Alcotest.failf "%s produced unparseable token: %s" label token
      | Some back ->
          Alcotest.(check string)
            (label ^ " round-trips")
            token
            (Schedule.to_string back));
      Alcotest.(check bool)
        (label ^ " bounded")
        true
        (List.length child.Schedule.s_injections <= Mutate.max_injections)

let test_mutators_valid () =
  let rng = Camelot_sim.Rng.create ~seed:5 in
  (* a real injection pool, from a counting run of the NB trio *)
  let r =
    Explorer.run_schedule { Schedule.s_workload = "trio-nb"; s_injections = [] }
  in
  let pool = Array.of_list (Explorer.singles_for r.Explorer.rr_hits) in
  Alcotest.(check bool) "pool non-empty" true (Array.length pool > 0);
  let parent =
    {
      Schedule.s_workload = "trio-nb";
      s_injections = [ pool.(0); pool.(Array.length pool / 2) ];
    }
  in
  for _ = 1 to 200 do
    check_valid "perturb_hit" (Mutate.perturb_hit rng parent);
    check_valid "swap_fault" (Mutate.swap_fault rng parent);
    check_valid "append_injection" (Mutate.append_injection rng ~pool parent)
  done;
  (* splice: valid token, and every child injection comes verbatim
     from one of its two parents *)
  let b =
    { Schedule.s_workload = "trio-nb"; s_injections = [ pool.(1); pool.(2) ] }
  in
  for _ = 1 to 200 do
    match Mutate.splice rng parent b with
    | None -> ()
    | Some child ->
        check_valid "splice" (Some child);
        List.iter
          (fun inj ->
            Alcotest.(check bool) "splice injection is from a parent" true
              (List.mem inj parent.Schedule.s_injections
              || List.mem inj b.Schedule.s_injections))
          child.Schedule.s_injections
  done;
  (* splicing across workloads is refused *)
  Alcotest.(check bool) "cross-workload splice refused" true
    (Mutate.splice rng parent
       { Schedule.s_workload = "pair-2pc"; s_injections = [ pool.(0) ] }
    = None)

(* Property: the shrink of a mutated failing schedule still fails —
   minimisation never loses the failure it is minimising. Uses the
   planted prepare-force bug as the failure source. *)
let test_shrink_preserves_failure () =
  let mutate_config c =
    c.Camelot_core.State.unsafe_skip_prepare_force <- true
  in
  let run = Explorer.run_schedule ~mutate_config in
  let r0 = run { Schedule.s_workload = "pair-2pc"; s_injections = [] } in
  let pool = Array.of_list (Explorer.singles_for r0.Explorer.rr_hits) in
  let rng = Camelot_sim.Rng.create ~seed:17 in
  let checked = ref 0 and attempts = ref 0 in
  while !checked < 3 && !attempts < 60 do
    incr attempts;
    let inj = pool.(Camelot_sim.Rng.int_below rng (Array.length pool)) in
    let s = { Schedule.s_workload = "pair-2pc"; s_injections = [ inj ] } in
    if (run s).Explorer.rr_violations <> [] then
      let partner () =
        Some
          {
            Schedule.s_workload = "pair-2pc";
            s_injections =
              [ pool.(Camelot_sim.Rng.int_below rng (Array.length pool)) ];
          }
      in
      match Mutate.mutate rng ~pool ~partner s with
      | None -> ()
      | Some child ->
          if (run child).Explorer.rr_violations <> [] then begin
            let shrunk = Explorer.shrink ~run child in
            incr checked;
            Alcotest.(check bool)
              ("shrunk mutant still fails: " ^ Schedule.to_string shrunk)
              true
              ((run shrunk).Explorer.rr_violations <> [])
          end
  done;
  Alcotest.(check bool) "found failing mutants to shrink" true (!checked > 0)

(* --- fuzzing ------------------------------------------------------ *)

(* Every persisted corpus entry replays from its token to exactly the
   coverage signature recorded beside it, and to the same (empty)
   oracle verdicts, twice over. *)
let test_corpus_determinism () =
  let dir = Filename.temp_dir "camelot-corpus" "" in
  let r = Explorer.fuzz ~budget:150 ~seed:7 ~corpus_dir:dir () in
  Alcotest.(check bool) "fuzz run clean" true (r.Explorer.rp_failures = []);
  Alcotest.(check bool) "corpus populated" true (r.Explorer.rp_corpus > 0);
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 4 && String.sub f 0 4 = "cov-")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus files written" true (files <> []);
  List.iter
    (fun f ->
      let ic = open_in (Filename.concat dir f) in
      let token = input_line ic in
      let stored_sig = input_line ic in
      close_in ic;
      match Schedule.of_string token with
      | None -> Alcotest.failf "corpus token did not parse: %s" token
      | Some s ->
          let r1 = Explorer.run_schedule s in
          let r2 = Explorer.run_schedule s in
          Alcotest.(check string)
            ("replay reproduces stored signature: " ^ token)
            stored_sig r1.Explorer.rr_signature;
          Alcotest.(check string)
            ("second replay identical: " ^ token)
            r1.Explorer.rr_signature r2.Explorer.rr_signature;
          Alcotest.(check bool)
            ("verdicts identical: " ^ token)
            true
            (r1.Explorer.rr_violations = r2.Explorer.rr_violations))
    files

(* Each shrunk failure of the planted-bug search still fails when
   replayed from its token, and is clean without the planted bug. *)
let test_fuzz_shrunk_tokens_replay () =
  let r = Lazy.force planted_bug_search in
  Alcotest.(check bool) "fuzzer caught the bug" true
    (r.Explorer.rp_failures <> []);
  List.iter
    (fun f ->
      let token = Schedule.to_string f.Explorer.fl_shrunk in
      match Schedule.of_string token with
      | None -> Alcotest.failf "shrunk token did not parse: %s" token
      | Some s ->
          let rr = Explorer.run_schedule ~mutate_config:skip_prepare_force s in
          Alcotest.(check bool)
            ("replayed failure still fails: " ^ token)
            true
            (rr.Explorer.rr_violations <> []);
          let clean = Explorer.run_schedule ~mutate_config:no_mutation s in
          Alcotest.(check int)
            ("clean without the bug: " ^ token)
            0
            (List.length clean.Explorer.rr_violations))
    r.Explorer.rp_failures

(* The claims `make chaos-smoke` and chaos_smoke.expected rest on,
   checked on that same run: it replays identically, it finds no
   failure, it hits every registered point, it runs a multi-shot
   schedule, and it reaches more distinct tuples than the 938 that the
   enumerate-then-random-pairs search this one replaced reached at
   this budget and seed. *)
let test_fuzz_deterministic_and_beats_explore () =
  let smoke () = Explorer.fuzz ~budget:1200 ~seed:42 () in
  let r = smoke () in
  let r2 = smoke () in
  Alcotest.(check int) "same tuple count" r.Explorer.rp_tuples
    r2.Explorer.rp_tuples;
  Alcotest.(check bool) "same coverage" true
    (r.Explorer.rp_coverage = r2.Explorer.rp_coverage);
  Alcotest.(check bool) "same growth curve" true
    (r.Explorer.rp_growth = r2.Explorer.rp_growth);
  Alcotest.(check int) "no failing schedules" 0 (List.length r.Explorer.rp_failures);
  Alcotest.(check (list string)) "no registered point left unhit" []
    r.Explorer.rp_missing;
  Alcotest.(check bool) "a multi-shot schedule ran" true
    (List.exists
       (fun (w, n) -> String.starts_with ~prefix:"multishot" w && n > 0)
       r.Explorer.rp_workload_runs);
  if r.Explorer.rp_tuples <= 938 then
    Alcotest.failf "%d distinct tuples, not more than 938" r.Explorer.rp_tuples

(* Parallel fuzzing: the budget splits exactly across the job domains,
   every job runs behind its own domain-local sink (no cross-talk →
   clean oracles), and admissions land in the shared corpus as
   complete, replayable files. *)
let test_fuzz_parallel_jobs () =
  let dir = Filename.temp_dir "camelot-corpus-par" "" in
  let r = Explorer.fuzz ~budget:200 ~seed:42 ~jobs:3 ~corpus_dir:dir () in
  Alcotest.(check int) "budget spent across jobs" 200 r.Explorer.rp_runs;
  Alcotest.(check bool) "parallel fuzz clean" true
    (r.Explorer.rp_failures = []);
  Alcotest.(check bool) "no fault point lost" true
    (r.Explorer.rp_missing = []);
  Alcotest.(check bool) "corpus populated" true (r.Explorer.rp_corpus > 0);
  (* every published corpus file is complete: token line + signature
     line, token parses, and no temp files leak into the load set *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".schedule" then begin
        let ic = open_in (Filename.concat dir f) in
        let token = input_line ic in
        let stored_sig = input_line ic in
        close_in ic;
        Alcotest.(check bool)
          ("corpus token parses: " ^ token)
          true
          (Schedule.of_string token <> None);
        Alcotest.(check bool)
          ("signature non-empty: " ^ f)
          true
          (String.length stored_sig > 0)
      end)
    (Sys.readdir dir);
  (* the sequential fuzzer still owns this process's sink afterwards *)
  let seq = Explorer.fuzz ~budget:60 ~seed:7 () in
  Alcotest.(check bool) "sequential fuzz after parallel is clean" true
    (seq.Explorer.rp_failures = [])

(* A fiber that dies is a finding like any other: a protocol timeout
   of -1 ms makes the first vote round's timed receive raise inside its
   registration, the explorer reports the dead fiber by name, and
   shrinking strips the schedule down to its bare workload. *)
let test_fiber_death_is_a_finding () =
  let mutate_config c = c.Camelot_core.State.vote_timeout_ms <- -1.0 in
  let r = Explorer.fuzz ~mutate_config ~budget:30 ~seed:42 () in
  Alcotest.(check bool) "deaths reported" true (r.Explorer.rp_failures <> []);
  List.iter
    (fun f ->
      let token = Schedule.to_string f.Explorer.fl_shrunk in
      Alcotest.(check int)
        ("shrunk to a bare workload: " ^ token)
        0
        (List.length f.Explorer.fl_shrunk.Schedule.s_injections);
      match f.Explorer.fl_violations with
      | [ { Oracle.v_oracle = "died"; v_detail } ] ->
          Alcotest.(check bool)
            ("names the fiber and the exception: " ^ v_detail)
            true
            (String.starts_with ~prefix:"fiber chaos-" v_detail
            && String.ends_with
                 ~suffix:{|Invalid_argument("Engine.schedule_timer: negative delay")|}
                 v_detail)
      | vs ->
          Alcotest.failf "%s: expected one [died] violation, got %d" token
            (List.length vs))
    r.Explorer.rp_failures

(* The group-commit logger under the search: no default-pool workload
   runs it, so it is searched alone, and its follower wait (a force
   that finds a write in flight parks behind it) must stay clean. *)
let test_group_commit_workload_clean () =
  let r = Explorer.fuzz ~budget:1500 ~seed:42 ~workloads:[ "group-mixed" ] () in
  Alcotest.(check int) "budget honoured" 1500 r.Explorer.rp_runs;
  Alcotest.(check int) "no failing schedules" 0 (List.length r.Explorer.rp_failures)

(* A detached note costs one branch: protocol code calls it on every
   yes-vote a coordinator collects, outside any explorer. *)
let test_detached_note_allocates_nothing () =
  let ops = 10_000 in
  let votes site =
    for n = 1 to ops do
      Camelot_chaos.note_votes ~site n
    done
  in
  votes 0;
  let before = Gc.minor_words () in
  votes 1;
  let per_op = (Gc.minor_words () -. before) /. float_of_int ops in
  if per_op > 0.1 then
    Alcotest.failf "detached note: %.1f words per call, budget 0.1" per_op

let () =
  Alcotest.run "camelot_chaos"
    [
      ( "explorer",
        [
          Alcotest.test_case "schedule tokens round-trip" `Quick
            test_schedule_tokens_round_trip;
          Alcotest.test_case "bare workloads clean" `Quick test_bare_workloads_clean;
          Alcotest.test_case "bounded exploration clean and deterministic" `Quick
            test_exploration_clean_and_deterministic;
          Alcotest.test_case "planted durability bug caught and shrunk" `Quick
            test_injected_bug_caught_and_shrunk;
        ] );
      ( "protocol_tokens",
        [
          Alcotest.test_case "paxos takeover after coordinator crash" `Quick
            test_paxos_takeover_after_coordinator_crash;
          Alcotest.test_case "paxos acceptor quorum split" `Quick
            test_paxos_acceptor_quorum_split;
          Alcotest.test_case "short-commit crash after early release" `Quick
            test_short_commit_early_release_crash;
          Alcotest.test_case "shrinking converges on new protocols" `Quick
            test_shrink_converges_on_new_protocols;
          Alcotest.test_case "mixed: refused participant keeps write" `Quick
            test_nb_refused_participant_keeps_committed_write_mixed;
          Alcotest.test_case "trio-nb: refused participant keeps write" `Quick
            test_nb_refused_participant_keeps_committed_write_trio;
        ] );
      ( "multishot",
        [
          Alcotest.test_case "chains commit fault-free up to 24 sites" `Quick
            test_multishot_bare;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "mutators emit valid bounded tokens" `Quick
            test_mutators_valid;
          Alcotest.test_case "shrinking a mutated failure preserves it" `Quick
            test_shrink_preserves_failure;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "corpus entries replay to stored signatures" `Quick
            test_corpus_determinism;
          Alcotest.test_case "deterministic and beats explore at equal budget"
            `Quick test_fuzz_deterministic_and_beats_explore;
          Alcotest.test_case "planted bug found and shrunk by fuzzing" `Quick
            test_fuzz_shrunk_tokens_replay;
          Alcotest.test_case "parallel jobs share a corpus" `Quick
            test_fuzz_parallel_jobs;
        ] );
      ( "findings",
        [
          Alcotest.test_case "a fiber's death is a finding" `Quick
            test_fiber_death_is_a_finding;
          Alcotest.test_case "group-commit logger searched clean" `Quick
            test_group_commit_workload_clean;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "detached note" `Quick
            test_detached_note_allocates_nothing;
        ] );
    ]
