(* The deterministic fault-schedule explorer.

   One run = one workload + one fault schedule, executed in four
   phases on a fresh cluster with the chaos sink attached:

   1. start the workload and let it resolve (or die in a crash);
   2. heal every partition and restart every crashed site, retrying
      when an injection crashes a site during its own recovery;
   3. drive the cluster until every started transaction is resolved
      at every site (liveness deadline: a blocked cluster is itself a
      violation);
   4. the durability hammer — crash every site, restart, re-resolve —
      so only log-backed state survives into the oracles.

   Every run additionally records its {!Coverage} tuples — what the
   schedule *reached*, as (fault-point × hit-index × phase) — and
   their canonical signature.

   The search ({!fuzz}) is coverage-guided: a counting run per workload
   records how often each fault point fires per site, a yield-ordered
   sweep runs every single injection those counts allow, and the rest
   of the budget mutates the schedules that grew global coverage (the
   {!Corpus}, optionally persisted and reloaded across sessions) with
   {!Mutate}, preferring recent growers. Failing schedules are greedily
   shrunk to a minimal replayable token. *)

open Camelot_core

type run_result = {
  rr_schedule : Schedule.t;
  rr_violations : Oracle.violation list;
  rr_hits : ((string * int) * int) list;  (* (point, site) -> hit count *)
  rr_tuples : Coverage.tuple list;  (* distinct, sorted *)
  rr_signature : string;  (* canonical coverage signature *)
  rr_txns : Workload.txn list;
}

type failure = {
  fl_original : Schedule.t;
  fl_shrunk : Schedule.t;
  fl_violations : Oracle.violation list;
}

type report = {
  rp_runs : int;
  rp_failures : failure list;
  rp_coverage : (string * int) list;  (* point -> total hits, all runs *)
  rp_missing : string list;  (* registered points never hit *)
  rp_tuples : int;  (* distinct coverage tuples over all runs *)
  rp_workload_runs : (string * int) list;  (* workload -> runs *)
  rp_corpus : int;  (* corpus entries *)
  rp_last_new : int;  (* run index that last grew coverage *)
  rp_growth : (int * int) list;  (* (runs, tuples) curve samples *)
}

(* Same noise-free model the test suites use (testutil is not a
   library; the three fields are repeated here). *)
let quiet_model =
  {
    Camelot_mach.Cost_model.rt with
    Camelot_mach.Cost_model.datagram_jitter_ms = 0.0;
    send_hiccup_p = 0.0;
    rpc_jitter_ms = 0.0;
  }

(* Short protocol timeouts so blocked states resolve in little virtual
   time; every schedule replays against exactly this configuration. *)
let chaos_config () =
  let c = State.default_config () in
  c.State.vote_timeout_ms <- 150.0;
  c.State.max_vote_retries <- 2;
  c.State.outcome_retry_ms <- 300.0;
  c.State.subordinate_timeout_ms <- 600.0;
  c.State.takeover_retry_ms <- 300.0;
  c.State.orphan_timeout_ms <- 1200.0;
  (* paxos workloads run at F = 1 so acceptor death and takeover races
     are actually reachable; non-paxos workloads ignore the knob *)
  c.State.paxos_f <- 1;
  c

let cluster_seed = 7

(* --- one run ------------------------------------------------------ *)

let run_schedule ?(mutate_config = fun (_ : State.config) -> ()) (s : Schedule.t)
    =
  let w =
    match Workload.find s.Schedule.s_workload with
    | Some w -> w
    | None -> invalid_arg ("chaos: unknown workload " ^ s.Schedule.s_workload)
  in
  let c =
    Camelot.Cluster.create ~seed:cluster_seed ~model:quiet_model
      ~config:(chaos_config ()) ~logger:w.Workload.w_logger
      ?checkpoint_every:w.Workload.w_checkpoint_every
      ~recovery_partitions:w.Workload.w_recovery_partitions
      ~sites:w.Workload.w_sites ()
  in
  Camelot.Cluster.each_config c mutate_config;
  let sites = w.Workload.w_sites in
  let hits : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  let tuples : (Coverage.tuple, unit) Hashtbl.t = Hashtbl.create 64 in
  let phase = ref Coverage.Workload in
  (* CHAOS_TRACE=1 prints every hit during a replay — the fastest way
     to see what a failing token actually did *)
  let trace = Sys.getenv_opt "CHAOS_TRACE" <> None in
  (* the engine's clock, not [Fiber.now]: a [deny] point such as
     [net.datagram] is hit from raw engine events too *)
  let now () = Camelot_sim.Engine.now (Camelot.Cluster.engine c) in
  (* each site's latest protocol-state note, rendered once as it is
     recorded *)
  let notes : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let on_note ~site note =
    Hashtbl.replace notes site (Coverage.note_to_string note)
  in
  let injections = Array.of_list s.Schedule.s_injections in
  let fired = Array.make (Array.length injections) false in
  let crashed_ever = Array.make sites false in
  let on_hit ~point ~site =
    let k = (point, site) in
    let n = Option.value ~default:0 (Hashtbl.find_opt hits k) + 1 in
    Hashtbl.replace hits k n;
    Hashtbl.replace tuples
      (Coverage.tuple ?note:(Hashtbl.find_opt notes site) ~point ~hit:n
         ~phase:!phase ())
      ();
    if trace then
      Printf.eprintf "[trace] %8.0fms %c %s/%d#%d\n%!" (now ())
        (Coverage.phase_to_char !phase) point site n;
    let action = ref Camelot_chaos.Pass in
    Array.iteri
      (fun i (inj : Schedule.injection) ->
        if
          (not fired.(i))
          && inj.Schedule.i_point = point
          && inj.Schedule.i_site = site
          && inj.Schedule.i_hit = n
        then begin
          fired.(i) <- true;
          if trace then
            Printf.eprintf "[trace] %8.0fms %c FIRE %s\n%!" (now ())
              (Coverage.phase_to_char !phase)
              (Schedule.injection_to_string inj);
          match inj.Schedule.i_fault with
          | Schedule.Drop -> action := Camelot_chaos.Deny
          | Schedule.Crash -> action := Camelot_chaos.Kill
          | Schedule.Isolate ->
              (* cut the site's datagrams off from everyone else; RPCs
                 (bound to site liveness, not the LAN) still flow *)
              let others =
                List.filter (fun x -> x <> site) (List.init sites Fun.id)
              in
              Camelot.Cluster.partition c [ [ site ]; others ]
        end)
      injections;
    !action
  in
  let crash ~site =
    crashed_ever.(site) <- true;
    if trace then
      Printf.eprintf "[trace] %8.0fms %c CRASH site %d\n%!" (now ())
        (Coverage.phase_to_char !phase) site;
    let node = Camelot.Cluster.node c site in
    if Camelot_mach.Site.alive node.Camelot.Cluster.site then
      Camelot.Cluster.crash_site c site
  in
  let violations = ref [] in
  let alive i =
    Camelot_mach.Site.alive (Camelot.Cluster.node c i).Camelot.Cluster.site
  in
  (* Restart every dead site, retrying when an injection kills the
     site again during its own recovery (recovery is idempotent; each
     retry replays the same durable log). *)
  let restart_all () =
    Camelot.Cluster.heal c;
    for i = 0 to sites - 1 do
      if not (alive i) then begin
        let rec go attempt =
          match Camelot.Cluster.restart_site c i with
          | (_ : Tid.t list) -> ()
          | exception Camelot_chaos.Killed ->
              if attempt < 6 then go (attempt + 1)
              else
                violations :=
                  Oracle.ac5 "site %d failed to recover after %d attempts" i
                    attempt
                  :: !violations
        in
        go 1
      end
    done
  in
  let poll_until ~deadline ~every pred =
    let rec loop () =
      if pred () then true
      else if Camelot_sim.Fiber.now () >= deadline then false
      else begin
        Camelot_sim.Fiber.sleep every;
        loop ()
      end
    in
    loop ()
  in
  Camelot_chaos.attach ~on_hit ~on_note ~crash;
  let txns_cell = ref [] in
  (* a fiber that dies stops the run where it stands: the oracles
     cannot judge a half-run schedule, so the death is the finding *)
  let run_to_verdict body =
    Fun.protect ~finally:Camelot_chaos.detach (fun () ->
        try body ()
        with Camelot_sim.Fiber.Died (name, e) ->
          violations := !violations @ [ Oracle.died name e ])
  in
  run_to_verdict (fun () ->
      Camelot_sim.Fiber.run (Camelot.Cluster.engine c) (fun () ->
          (* phase 1: the workload, until every transaction resolved,
             skipped, or dead with its crashed site *)
          let txns = w.Workload.w_start c in
          txns_cell := txns;
          ignore
            (poll_until
               ~deadline:(Camelot_sim.Fiber.now () +. 6000.0)
               ~every:50.0
               (fun () ->
                 List.for_all
                   (fun (t : Workload.txn) ->
                     !(t.Workload.x_result) <> None
                     || crashed_ever.(t.Workload.x_origin)
                     || !(t.Workload.x_skipped))
                   txns)
              : bool);
          (* phases 2+3: heal, restart, resolve everywhere *)
          phase := Coverage.Recover;
          let resolved_everywhere () =
            List.for_all (fun i -> alive i) (List.init sites Fun.id)
            && List.for_all
                 (fun (t : Workload.txn) ->
                   match !(t.Workload.x_tid) with
                   | None ->
                       (* a deferred shot whose controller has neither
                          started nor skipped it is still pending *)
                       (not t.Workload.x_deferred)
                       || !(t.Workload.x_skipped)
                   | Some tid ->
                       List.for_all
                         (fun i ->
                           match
                             Tranman.status (Camelot.Cluster.tranman c i) tid
                           with
                           | Protocol.St_unknown | Protocol.St_committed
                           | Protocol.St_aborted ->
                               true
                           | _ -> false)
                         (List.init sites Fun.id))
                 txns
          in
          let resolve ~deadline_ms ~phase =
            let deadline = Camelot_sim.Fiber.now () +. deadline_ms in
            let ok =
              poll_until ~deadline ~every:100.0 (fun () ->
                  restart_all ();
                  resolved_everywhere ())
            in
            if not ok then begin
              let stuck =
                List.concat_map
                  (fun (t : Workload.txn) ->
                    match !(t.Workload.x_tid) with
                    | None -> []
                    | Some tid ->
                        List.filter_map
                          (fun i ->
                            match
                              Tranman.status (Camelot.Cluster.tranman c i) tid
                            with
                            | Protocol.St_unknown | Protocol.St_committed
                            | Protocol.St_aborted ->
                                None
                            | st ->
                                Some
                                  (Format.asprintf "%s@%d:%a" t.Workload.x_label
                                     i Protocol.pp_status st))
                          (List.init sites Fun.id))
                  txns
              in
              violations :=
                Oracle.ac5 "%s: unresolved after %.0fms: %s" phase deadline_ms
                  (String.concat ", " stuck)
                :: !violations
            end;
            ok
          in
          let settled = resolve ~deadline_ms:20_000.0 ~phase:"post-heal" in
          Camelot_sim.Fiber.sleep 500.0;
          (* phase 4: durability hammer — only log-backed state survives *)
          if settled then begin
            phase := Coverage.Hammer;
            for i = 0 to sites - 1 do
              if alive i then Camelot.Cluster.crash_site c i
            done;
            restart_all ();
            ignore (resolve ~deadline_ms:10_000.0 ~phase:"post-hammer" : bool);
            Camelot_sim.Fiber.sleep 500.0
          end;
          let fault_free = not (Array.exists Fun.id fired) in
          violations := !violations @ Oracle.check ~fault_free c txns));
  (* Free the abandoned cluster's fibers: a crash cancels every fiber
     parked in a live site's group, and running the engine to the
     current instant delivers the cancellations, so each discontinued
     continuation releases its stack now rather than never. *)
  for i = 0 to sites - 1 do
    if alive i then Camelot.Cluster.crash_site c i
  done;
  let eng = Camelot.Cluster.engine c in
  Camelot_sim.Engine.run ~until:(Camelot_sim.Engine.now eng) eng;
  let tuple_list = Hashtbl.fold (fun t () acc -> t :: acc) tuples [] in
  let tuple_list = List.sort_uniq Coverage.compare_tuple tuple_list in
  {
    rr_schedule = s;
    rr_violations = !violations;
    rr_hits = Hashtbl.fold (fun k n acc -> (k, n) :: acc) hits [];
    rr_tuples = tuple_list;
    rr_signature = Coverage.signature tuple_list;
    rr_txns = !txns_cell;
  }

(* --- shrinking ---------------------------------------------------- *)

(* Greedy minimisation of a failing schedule: drop injections while
   the run still fails, then lower each surviving injection's hit
   index as far as it will go. *)
let shrink ~run (s : Schedule.t) =
  let fails s = (run s).rr_violations <> [] in
  let rec drop_pass (s : Schedule.t) =
    let n = List.length s.Schedule.s_injections in
    let rec try_drop i =
      if i >= n then s
      else
        let s' =
          {
            s with
            Schedule.s_injections =
              List.filteri (fun j _ -> j <> i) s.Schedule.s_injections;
          }
        in
        if fails s' then drop_pass s' else try_drop (i + 1)
    in
    try_drop 0
  in
  let s = drop_pass s in
  let lower_one (s : Schedule.t) idx =
    let inj = List.nth s.Schedule.s_injections idx in
    let rec low h =
      if h >= inj.Schedule.i_hit then s
      else
        let s' =
          {
            s with
            Schedule.s_injections =
              List.mapi
                (fun j x -> if j = idx then { inj with Schedule.i_hit = h } else x)
                s.Schedule.s_injections;
          }
        in
        if fails s' then s' else low (h + 1)
    in
    low 1
  in
  List.fold_left lower_one s
    (List.init (List.length s.Schedule.s_injections) Fun.id)

(* --- enumeration -------------------------------------------------- *)

(* The per-point hit caps live in {!Mutate} so the enumerator and the
   mutators draw from the same ranges. *)

let singles_for hits =
  let kinds = Camelot_chaos.registered () in
  List.concat_map
    (fun ((point, site), count) ->
      match List.assoc_opt point kinds with
      | None -> []
      | Some kind ->
          let k = min count (Mutate.hit_cap point) in
          List.concat
            (List.init k (fun h ->
                 let mk fault =
                   {
                     Schedule.i_fault = fault;
                     i_point = point;
                     i_site = site;
                     i_hit = h + 1;
                   }
                 in
                 match kind with
                 | Camelot_chaos.Choice -> [ mk Schedule.Drop ]
                 | Camelot_chaos.Step ->
                     [ mk Schedule.Crash; mk Schedule.Isolate ])))
    hits

(* --- the search --------------------------------------------------- *)

let default_workloads () = List.map (fun w -> w.Workload.w_name) Workload.all
let is_pow2 n = n > 0 && n land (n - 1) = 0

let bump tbl k n =
  Hashtbl.replace tbl k (Option.value ~default:0 (Hashtbl.find_opt tbl k) + n)

(* A report from per-point hit totals, the distinct-tuple set and
   per-workload run counts. *)
let report ~runs ~failures ~coverage ~tuples ~wruns ~corpus ~last_new ~growth
    =
  let registered = List.map fst (Camelot_chaos.registered ()) in
  {
    rp_runs = runs;
    rp_failures = failures;
    rp_coverage =
      List.filter_map
        (fun p -> Option.map (fun n -> (p, n)) (Hashtbl.find_opt coverage p))
        registered;
    rp_missing = List.filter (fun p -> not (Hashtbl.mem coverage p)) registered;
    rp_tuples = Hashtbl.length tuples;
    rp_workload_runs =
      List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) wruns []);
    rp_corpus = corpus;
    rp_last_new = last_new;
    rp_growth = growth;
  }

(* One job's search: counting runs seed the per-workload injection
   pools and the corpus; schedules saved by earlier sessions replay
   next (admitted again if they still grow coverage); a yield-ordered
   sweep runs every single injection; then the budget is spent mutating
   corpus schedules, preferring recent growers. A schedule enters the
   corpus iff it contributed at least one globally-new tuple.

   Also returns the job's distinct-tuple set, so a parallel merge can
   union coverage instead of double-counting. *)
let fuzz_one ?mutate_config ~budget ~seed ?corpus_dir ?workloads
    ~max_failures ~progress () =
  let workloads =
    match workloads with Some ws -> ws | None -> default_workloads ()
  in
  let rng = Camelot_sim.Rng.create ~seed in
  let corpus = Corpus.create ?dir:corpus_dir () in
  (* point -> hits; distinct tuples; workload -> runs; workload -> fresh
     tuples, for the sweep's energy scores *)
  let coverage = Hashtbl.create 64 and tuples = Hashtbl.create 256 in
  let wruns = Hashtbl.create 16 and wyield = Hashtbl.create 16 in
  let runs = ref 0 and failures = ref [] and last_new = ref 0 in
  (* (runs, tuples) sampled at powers-of-two run counts, newest-first *)
  let growth = ref [] in
  let give_up () = !runs >= budget || List.length !failures >= max_failures in
  (* Run one schedule and absorb its coverage; returns the result and
     how many globally-new tuples it contributed. *)
  let exec (s : Schedule.t) =
    let r = run_schedule ?mutate_config s in
    incr runs;
    progress !runs budget;
    bump wruns s.Schedule.s_workload 1;
    List.iter (fun ((p, _), n) -> bump coverage p n) r.rr_hits;
    let fresh =
      List.fold_left
        (fun k t ->
          if Hashtbl.mem tuples t then k
          else begin
            Hashtbl.replace tuples t ();
            k + 1
          end)
        0 r.rr_tuples
    in
    if fresh > 0 then last_new := !runs;
    if is_pow2 !runs then growth := (!runs, Hashtbl.length tuples) :: !growth;
    (r, fresh)
  in
  (* One search step. A failing schedule is shrunk to a minimal
     replayable token; shrink runs count against the budget and feed
     coverage like any other run. *)
  let step (s : Schedule.t) =
    let r, fresh = exec s in
    bump wyield s.Schedule.s_workload fresh;
    if r.rr_violations <> [] then begin
      let run s = fst (exec s) in
      let shrunk = shrink ~run s in
      (* re-run the shrunk schedule to report its violations *)
      let final = run shrunk in
      Corpus.note_failure corpus shrunk;
      failures :=
        {
          fl_original = s;
          fl_shrunk = shrunk;
          fl_violations =
            (if final.rr_violations <> [] then final.rr_violations
             else r.rr_violations);
        }
        :: !failures
    end;
    if fresh > 0 then Corpus.add corpus s ~signature:r.rr_signature;
    r
  in
  (* counting runs: each workload's injection pool, and the bare
     schedules as corpus roots *)
  let pools =
    List.filter_map
      (fun name ->
        if give_up () then None
        else
          let r = step { Schedule.s_workload = name; s_injections = [] } in
          match singles_for r.rr_hits with
          | [] -> None
          | singles -> Some (name, Array.of_list singles))
      workloads
  in
  (* replay what earlier sessions found interesting *)
  List.iter
    (fun (s : Schedule.t) ->
      if
        (not (give_up ()))
        && List.mem s.Schedule.s_workload workloads
        && s.Schedule.s_injections <> []
      then ignore (step s : run_result))
    (Corpus.load corpus);
  let pool_arr = Array.of_list pools in
  let random_single () =
    if Array.length pool_arr = 0 then None
    else
      let name, pool =
        pool_arr.(Camelot_sim.Rng.int_below rng (Array.length pool_arr))
      in
      let inj = pool.(Camelot_sim.Rng.int_below rng (Array.length pool)) in
      Some { Schedule.s_workload = name; s_injections = [ inj ] }
  in
  (* deterministic singles, yield-ordered: every (workload, single)
     pair at most once, drawn greedily from the workload with the best
     fresh-tuples-per-run average so far (optimistic +1 prior) — an
     AFL-style energy assignment, so the budget flows to whatever
     workload keeps producing new coverage instead of marching through
     the list in declaration order *)
  let sweep =
    Array.map (fun (name, p) -> (name, ref (Array.to_list p))) pool_arr
  in
  let wscore name =
    let y = Option.value ~default:0 (Hashtbl.find_opt wyield name) in
    let n = Option.value ~default:0 (Hashtbl.find_opt wruns name) in
    float_of_int (y + 1) /. float_of_int (n + 1)
  in
  let next_sweep () =
    let best =
      Array.fold_left
        (fun acc ((name, left) as cand) ->
          match (!left, acc) with
          | [], _ -> acc
          | _, Some (b, _) when wscore b >= wscore name -> acc
          | _ -> Some cand)
        None sweep
    in
    match best with
    | Some (name, ({ contents = inj :: rest } as left)) ->
        left := rest;
        Some { Schedule.s_workload = name; s_injections = [ inj ] }
    | _ -> None
  in
  let mutated () =
    match Corpus.pick corpus rng with
    | None -> random_single ()
    | Some s -> (
        let pool =
          Option.value ~default:[||] (List.assoc_opt s.Schedule.s_workload pools)
        in
        let partner () =
          Corpus.pick_for_workload corpus rng s.Schedule.s_workload
        in
        match Mutate.mutate rng ~pool ~partner s with
        | Some child -> Some child
        | None -> random_single ())
  in
  (* the sweep guarantees breadth and feeds the corpus; mutation owns
     the long tail after it *)
  let rec loop () =
    if not (give_up ()) then
      let child =
        match next_sweep () with Some _ as s -> s | None -> mutated ()
      in
      match child with
      | None -> ()
      | Some child ->
          ignore (step child : run_result);
          loop ()
  in
  loop ();
  let growth =
    List.rev
      (match !growth with
      | (n, _) :: _ when n = !runs -> !growth
      | g -> (!runs, Hashtbl.length tuples) :: g)
  in
  ( report ~runs:!runs ~failures:(List.rev !failures) ~coverage ~tuples ~wruns
      ~corpus:(Corpus.size corpus) ~last_new:!last_new ~growth,
    Hashtbl.fold (fun t () acc -> t :: acc) tuples [] )

(* --- parallel jobs ------------------------------------------------ *)

(* Seed stride between jobs: a large prime, so derived per-schedule rng
   streams of neighbouring jobs never line up. *)
let job_seed_stride = 1_000_003

(* Union of per-job reports. Coverage and workload-run counts add;
   tuple sets union (signatures admitted by several jobs count once);
   the growth curve collapses to its final (runs, tuples) sample —
   per-job curves don't compose meaningfully. *)
let merge_reports ~corpus parts =
  let coverage = Hashtbl.create 64 in
  let wruns = Hashtbl.create 16 in
  let tuples = Hashtbl.create 256 in
  List.iter
    (fun ((r : report), tups) ->
      List.iter (fun (p, n) -> bump coverage p n) r.rp_coverage;
      List.iter (fun (w, n) -> bump wruns w n) r.rp_workload_runs;
      List.iter (fun t -> Hashtbl.replace tuples t ()) tups)
    parts;
  let runs =
    List.fold_left (fun acc ((r : report), _) -> acc + r.rp_runs) 0 parts
  in
  report ~runs
    ~failures:(List.concat_map (fun ((r : report), _) -> r.rp_failures) parts)
    ~coverage ~tuples ~wruns ~corpus
      (* job-local indices; the max is "the deepest any job got before
         coverage dried up" *)
    ~last_new:
      (List.fold_left (fun acc ((r : report), _) -> max acc r.rp_last_new) 0 parts)
    ~growth:[ (runs, Hashtbl.length tuples) ]

(* Count the published corpus entries on disk, after every job has
   finished renaming its admissions in. *)
let corpus_files dir =
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun acc f -> if Filename.check_suffix f ".schedule" then acc + 1 else acc)
      0 (Sys.readdir dir)

(* [fuzz ~budget ~seed ()] runs the search over [budget] schedules.
   [~jobs:n] splits the budget over [n] independent jobs, one OCaml
   domain each, seeded [seed + i * stride]. Jobs share the
   corpus directory — admissions are atomic renames keyed by coverage
   signature, so concurrent jobs merge by signature and a job's finds
   seed later sessions of every other job — but not in-memory state:
   each job runs its own explorer behind its own domain-local chaos
   sink. *)
let fuzz ?mutate_config ~budget ~seed ?(jobs = 1) ?corpus_dir
    ?workloads ?(max_failures = 3)
    ?(progress = fun (_ : int) (_ : int) -> ()) () =
  if jobs <= 0 then invalid_arg "Explorer.fuzz: jobs must be positive";
  if jobs = 1 then
    fst
      (fuzz_one ?mutate_config ~budget ~seed ?corpus_dir ?workloads
         ~max_failures ~progress ())
  else begin
    let jobs = min jobs budget in
    let done_runs = Atomic.make 0 in
    let progress_mu = Mutex.create () in
    let global_progress (_ : int) (_ : int) =
      let n = Atomic.fetch_and_add done_runs 1 + 1 in
      Mutex.lock progress_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock progress_mu)
        (fun () -> progress n budget)
    in
    let job i () =
      let share = (budget / jobs) + if i < budget mod jobs then 1 else 0 in
      fuzz_one ?mutate_config ~budget:share
        ~seed:(seed + (i * job_seed_stride))
        ?corpus_dir ?workloads ~max_failures ~progress:global_progress ()
    in
    let rest = Array.init (jobs - 1) (fun i -> Domain.spawn (job (i + 1))) in
    let first = job 0 () in
    let parts = first :: Array.to_list (Array.map Domain.join rest) in
    let corpus =
      match corpus_dir with
      | Some d -> corpus_files d
      | None ->
          List.fold_left (fun acc ((r : report), _) -> acc + r.rp_corpus) 0 parts
    in
    merge_reports ~corpus parts
  end

(* --- reporting ---------------------------------------------------- *)

let pp_report ppf r =
  Format.fprintf ppf "chaos: %d schedules run, %d failing@." r.rp_runs
    (List.length r.rp_failures);
  Format.fprintf ppf
    "tuples: %d distinct (point x hit x phase), last new at run %d, corpus %d@."
    r.rp_tuples r.rp_last_new r.rp_corpus;
  Format.fprintf ppf "growth:%s@."
    (String.concat ""
       (List.map (fun (n, t) -> Printf.sprintf " %d:%d" n t) r.rp_growth));
  Format.fprintf ppf "coverage (%d/%d points hit):@."
    (List.length r.rp_coverage)
    (List.length r.rp_coverage + List.length r.rp_missing);
  List.iter
    (fun (p, n) -> Format.fprintf ppf "  %-28s %d hits@." p n)
    r.rp_coverage;
  List.iter
    (fun p -> Format.fprintf ppf "  %-28s NEVER HIT@." p)
    r.rp_missing;
  List.iter
    (fun f ->
      Format.fprintf ppf "FAILURE: %s@." (Schedule.to_string f.fl_original);
      Format.fprintf ppf "  minimal: --schedule '%s'@."
        (Schedule.to_string f.fl_shrunk);
      List.iter
        (fun x -> Format.fprintf ppf "  %a@." Oracle.pp_violation x)
        f.fl_violations)
    r.rp_failures
