open Camelot_sim
open Camelot_mach
open State

type t = State.t

exception Unknown_transaction of Tid.t

(* ---------------------------------------------------------------- *)
(* Dispatch *)

(* A prepared subordinate's protocol timeout: an inquiry timer under
   the protocols whose coordinator alone decides, a takeover timer
   under the two that survive its failure. It takes the family's one
   timer slot from the orphan inquiry. *)
let arm_watchdog st fam =
  Engine.cancel (engine st) fam.f_watchdog;
  match fam.f_protocol with
  | Protocol.Two_phase | Protocol.Short_commit ->
      Subordinate.inquire_every st fam ~orphan:false
  | Protocol.Nonblocking ->
      Subordinate.start_takeover_watchdog st fam ~takeover:Nonblocking.takeover
  | Protocol.Paxos_commit ->
      Subordinate.start_takeover_watchdog st fam ~takeover:Paxos_commit.takeover

(* The endpoint handler runs as a raw engine event and must not block:
   protocol responses are demultiplexed straight into the waiting
   coordinator's mailbox (the CornMan-style forwarding role), while
   requests that do real work — and may force the log — are handed to
   the worker pool. *)
let dispatch st msg =
  if tracing st then tracef st "recv" "%a" Protocol.pp msg;
  let tid = Protocol.tid msg in
  let to_pool handler =
    Dispatch.submit st.pool ~shard:0 (fun () ->
        charge_cpu st;
        handler st msg)
  in
  (* The Paxos acceptor is its own role — Gray & Lamport run it as a
     separate process — so its phase 1/2 work gets a dedicated fiber
     rather than a worker-pool slot. Coordinators occupy pool threads
     for the whole commit, and at F = 0 the coordinator site is also
     the sole acceptor: routed through the pool, the phase-2a votes a
     commit is waiting on would queue behind the very commits waiting
     for them whenever commit concurrency reaches the pool size. *)
  let to_acceptor handler =
    Site.spawn st.site ~name:"paxos-acceptor" (fun () ->
        charge_cpu st;
        handler st msg)
  in
  let to_waiter () =
    match waiter st tid with
    | Some mb -> Mailbox.send mb msg
    | None -> ()
  in
  match msg with
  | Protocol.Vote _ | Protocol.Replicate_ack _ | Protocol.Refused _
  | Protocol.Paxos_accepted _ | Protocol.Paxos_promise _ ->
      to_waiter ()
  | Protocol.Status _ -> (
      match waiter st tid with
      | Some mb -> Mailbox.send mb msg
      | None -> to_pool Subordinate.handle_status)
  | Protocol.Outcome_ack { m_from; _ } -> (
      (* a marker awaits no acknowledgement *)
      match Hashtbl.find_opt st.families (family_key tid) with
      | Some fam -> Two_phase.note_outcome_ack st fam ~from:m_from
      | None -> ())
  | Protocol.Prepare _ ->
      to_pool (fun st msg -> Subordinate.handle_prepare st msg ~arm_watchdog)
  | Protocol.Paxos_accept _ -> to_acceptor Subordinate.handle_paxos_accept
  | Protocol.Paxos_prepare _ -> to_acceptor Subordinate.handle_paxos_prepare
  | Protocol.Replicate _ -> to_pool Subordinate.handle_replicate
  | Protocol.Outcome _ -> to_pool Subordinate.handle_outcome
  | Protocol.Inquiry _ -> to_pool Subordinate.handle_inquiry
  | Protocol.Join_abort_quorum _ -> to_pool Subordinate.handle_join_abort_quorum
  | Protocol.Child_finish _ -> to_pool Subordinate.handle_child_finish

(* ---------------------------------------------------------------- *)
(* Construction *)

let attach st =
  match st.endpoint with
  | Some ep -> Camelot_net.Lan.set_handler ep (dispatch st)
  | None ->
      let ep = Camelot_net.Lan.endpoint st.lan st.site (dispatch st) in
      st.endpoint <- Some ep;
      Hashtbl.replace st.directory (Site.id st.site) ep

let create site ~lan ~log ~directory ~config =
  let pool = Dispatch.create ~shards:1 ~executors_per_shard:config.threads site in
  let st =
    {
      site;
      lan;
      log;
      config;
      directory;
      endpoint = None;
      pool;
      families = Hashtbl.create 64;
      resolved = Hashtbl.create 64;
      servers = Hashtbl.create 8;
      next_seq = 0;
      waiters = Hashtbl.create 16;
      stats =
        {
          n_begun = 0;
          n_committed = 0;
          n_aborted = 0;
          n_distributed = 0;
          n_takeovers = 0;
          n_inquiries = 0;
          n_heuristic = 0;
          n_heuristic_damage = 0;
        };
      (* disabled by default; enable via
         [Trace.set_enabled (trace tm) true]. Hot call sites test
         [tracing] first, so the commit path pays one branch, not the
         closures that applying [tracef] to its arguments builds *)
      trace = Trace.create ~enabled:false ();
    }
  in
  attach st;
  st

(* The pool re-staffs itself when the site restarts (dropping the
   requests queued before the crash), so only the endpoint and the
   volatile tables need attention here. *)
let restart st =
  (* volatile state of the old incarnation is gone *)
  Hashtbl.reset st.families;
  Hashtbl.reset st.resolved;
  Hashtbl.reset st.waiters;
  Hashtbl.reset st.servers;
  attach st

let site st = st.site
let config st = st.config
let stats st = st.stats
let trace st = st.trace

(* ---------------------------------------------------------------- *)
(* TranMan requests: each is one IPC to the TranMan process and is
   served by a worker thread (the Figures 4/5 contention point). *)

(* Run a request on a worker thread and wait for the reply; exceptions
   (e.g. Unknown_transaction) travel back to the caller. *)
let tranman_down st reason =
  Rpc.Rpc_failure { callee = Site.id st.site; reason }

(* The caller blocks before the pool can run its job or the site can
   crash, so a reply always finds its resumer; the second of the two
   replies finds it fired and is a no-op. *)
let reply caller r =
  match !caller with
  | Some resumer -> Fiber.resume resumer (Ok r)
  | None -> assert false

let on_pool st job =
  Rpc.local_ipc st.site;
  let group = Site.group st.site in
  if Fiber.Group.killed group then raise (tranman_down st "tranman site down");
  let inc = Site.incarnation st.site in
  let caller = ref None in
  (* A site crash silences the worker pool: queued jobs are never
     served and in-service workers die without replying. A caller from
     another site (the inline half of a cross-site RPC) would block
     forever, so group death fails the request like a broken RPC. *)
  let hook =
    Fiber.Group.register group (fun () ->
        reply caller (Error (tranman_down st "tranman site crashed")))
  in
  Dispatch.submit st.pool ~shard:0 (fun () ->
      charge_cpu st;
      let r = match job () with v -> Ok v | exception e -> Error e in
      Fiber.Group.unregister hook;
      reply caller r);
  match Fiber.suspend (fun r -> caller := Some r) with
  | Ok v -> v
  | Error e ->
      if (not (Site.alive st.site)) || Site.incarnation st.site <> inc then
        raise (tranman_down st "tranman site crashed")
      else raise e

let require_family st tid =
  match find_family st tid with
  | Some fam -> fam
  | None -> raise (Unknown_transaction tid)

let begin_transaction st =
  on_pool st (fun () ->
      let seq = st.next_seq in
      st.next_seq <- seq + 1;
      st.stats.n_begun <- st.stats.n_begun + 1;
      let tid = Tid.root ~origin:(me st) ~seq in
      ignore (new_family st ~root:tid ~role:Coordinator ~protocol:Protocol.Two_phase
              : family);
      if tracing st then tracef st "txn" "begin %a" Tid.pp tid;
      tid)

let begin_nested st ~parent =
  on_pool st (fun () ->
      let fam = require_family st parent in
      let pm = member fam parent in
      let n = (Site.id st.site * 4096) + pm.mem_children in
      pm.mem_children <- pm.mem_children + 1;
      let tid = Tid.child parent ~n in
      ignore (member fam tid : member);
      if tracing st then tracef st "txn" "begin nested %a" Tid.pp tid;
      tid)

(* Resolve a subtransaction: apply at local servers, push to the
   family's other sites (best effort; they also learn at prepare). *)
let finish_nested st fam tid outcome =
  let m = member fam tid in
  if m.mem_resolved = None then begin
    m.mem_resolved <- Some outcome;
    tell_local_servers st fam tid
      (match outcome with
      | Protocol.Committed -> fun cb -> cb.sv_subcommit
      | Protocol.Aborted -> fun cb -> cb.sv_abort);
    fan_out st ~dsts:fam.f_remote_sites
      (Protocol.Child_finish { m_tid = tid; m_outcome = outcome })
  end

(* Resolve a subtransaction: its own unresolved descendants abort
   first, whatever its outcome, since they never committed into it. *)
let finish_subtransaction st fam tid outcome =
  List.iter
    (fun child ->
      if Tid.is_ancestor tid child && not (Tid.equal tid child) then
        finish_nested st fam child Protocol.Aborted)
    (unresolved_children fam);
  finish_nested st fam tid outcome

let abort_unresolved_children st fam =
  (* deepest first, so a child's records retag before its parent's *)
  let pending = unresolved_children fam in
  let deepest_first =
    List.sort (fun a b -> Stdlib.compare (Tid.depth b) (Tid.depth a)) pending
  in
  List.iter (fun tid -> finish_nested st fam tid Protocol.Aborted) deepest_first

(* Drop the descriptor of a resolved transaction. After this,
   inquiries answer "unknown", which is where the presumption earns its
   name. Only a local family is forgotten on resolving, by [commit] and
   [abort]: every other resolved family stays in [families] until the
   site crashes, so duplicate messages get idempotent answers and
   [outcome] keeps answering. Once its protocol has nothing left to do
   it stays as its marker ([State.compact]), a shared constant, so it
   costs only its table cell. *)
let forget st tid =
  match view st tid with
  | Decided _ ->
      Hashtbl.remove st.families (family_key tid);
      Hashtbl.remove st.resolved (family_key tid)
  | Open _ | Unknown -> ()

(* A family coordinated here that no remote site ever joined: no
   message names its TID, so no one can ask about it once it resolves
   and presumed abort lets it go at once. *)
let forget_if_local st fam =
  if fam.f_role = Coordinator && fam.f_remote_sites = [] then forget st fam.f_root

(* The commit entry every protocol shares: collect the local vote; a
   no aborts everywhere, and a family no remote site joined commits
   locally. Only a yes with subordinates runs the family's protocol. *)
let coordinate st fam =
  let local_vote = vote_local_servers st fam in
  let subs = fam.f_remote_sites in
  if subs <> [] then st.stats.n_distributed <- st.stats.n_distributed + 1;
  match local_vote with
  | Protocol.Vote_no -> Two_phase.abort_distributed st fam ~subs
  | Protocol.Vote_yes { read_only = local_ro } -> (
      if subs = [] then Two_phase.commit_local st fam ~read_only:local_ro
      else
        match fam.f_protocol with
        | Protocol.Two_phase | Protocol.Short_commit ->
            Two_phase.coordinate st fam ~local_ro
        | Protocol.Nonblocking -> Nonblocking.coordinate st fam ~local_ro
        | Protocol.Paxos_commit -> Paxos_commit.coordinate st fam ~local_ro)

let commit st ?(protocol = Protocol.Two_phase) tid =
  if Tid.is_top tid then
    on_pool st (fun () ->
        match view st tid with
        | Unknown -> raise (Unknown_transaction tid)
        | Decided o -> o
        | Open fam ->
            abort_unresolved_children st fam;
            fam.f_protocol <- protocol;
            let o = coordinate st fam in
            forget_if_local st fam;
            o)
  else
    on_pool st (fun () ->
        finish_subtransaction st (require_family st tid) tid Protocol.Committed;
        Protocol.Committed)

let abort st tid =
  ignore
    (on_pool st (fun () ->
         if Tid.is_top tid then begin
           match view st tid with
           | Open fam ->
               abort_unresolved_children st fam;
               ignore
                 (Two_phase.abort_distributed st fam ~subs:fam.f_remote_sites
                   : Protocol.outcome);
               forget_if_local st fam
           | Decided _ | Unknown -> ()
         end
         else
           match find_family st tid with
           | None -> ()
           | Some fam -> finish_subtransaction st fam tid Protocol.Aborted)
      : unit)

let outcome st tid =
  match view st tid with
  | Decided o -> some_outcome o
  | Open _ | Unknown -> None

(* LU 6.2-style heuristic commit (paper §5): an operator resolves a
   blocked transaction by decree. Correctness is not guaranteed — if
   the real outcome later turns out to differ, the damage is counted in
   [stats.n_heuristic_damage] — but the locks are freed now. *)
let heuristic_resolve st tid outcome =
  on_pool st (fun () ->
      match view st tid with
      | Unknown -> raise (Unknown_transaction tid)
      | Decided prior -> prior
      | Open fam ->
          st.stats.n_heuristic <- st.stats.n_heuristic + 1;
          tracef st "heuristic" "%a resolved %a by operator" Tid.pp tid
            Protocol.pp_outcome outcome;
          (match outcome with
          | Protocol.Committed ->
              Subordinate.apply_commit st fam ~ack_to:(Tid.origin tid)
          | Protocol.Aborted -> Subordinate.apply_abort st fam);
          outcome)

(* ---------------------------------------------------------------- *)
(* Hooks *)

let register_server st cb = Hashtbl.replace st.servers cb.sv_name cb

let join st tid ~server =
  ignore
    (on_pool st (fun () ->
         let fam = find_or_join_family st tid in
         ignore (member fam tid : member);
         if not (List.mem server fam.f_servers) then
           fam.f_servers <- server :: fam.f_servers;
         if
           fam.f_role = Subordinate
           && fam.f_watchdog == Engine.no_timer
           && fam.f_outcome = None
         then Subordinate.inquire_every st fam ~orphan:true;
         if tracing st then
           tracef st "txn" "%a joined by server %s" Tid.pp tid server)
      : unit)

let note_site st tid s =
  match find_family st tid with
  | None -> ()
  | Some fam ->
      if s <> me st && not (List.mem s fam.f_remote_sites) then
        fam.f_remote_sites <- s :: fam.f_remote_sites

let status st tid = status_of_family st tid

(* ---------------------------------------------------------------- *)
(* Recovery: called by the recovery process after servers re-register.
   Volatile descriptors are rebuilt from the durable log; transactions
   that were prepared but undecided re-enter the blocked state and
   resolve through the normal inquiry/takeover machinery. *)

(* Protocol images: what a family's log records say about it. One fold
   over the log builds them for both consumers: a checkpoint record
   carries them in place of the records below it that truncation may
   drop, and recovery installs them as the rebuilt descriptors. A
   recovery from a truncated log therefore rebuilds exactly what a
   full-log replay would have.

   The images are derived by replaying the log itself (seeded from the
   previous checkpoint's images), NOT by snapshotting the volatile
   family descriptors: protocol flags lag the log — a subordinate sets
   [f_prepared] only after its prepare force returns, so mid-force the
   record is already spooled while the flag is still false. A snapshot
   taken in that window would let truncation drop a Prepare record that
   nothing summarizes; replaying the records the checkpoint replaces
   captures them by construction. *)
let image_apply (im : Record.family_image) = function
  | Record.Checkpoint _ -> im
  | Record.Update { u_server; _ } ->
      if List.mem u_server im.Record.fi_servers then im
      else { im with Record.fi_servers = u_server :: im.Record.fi_servers }
  | Record.Collecting { g_sites; g_protocol; _ } ->
      { im with Record.fi_prepared = true; fi_sites = g_sites; fi_protocol = g_protocol }
  | Record.Prepare { p_protocol; p_sites; p_acceptors; _ } ->
      {
        im with
        Record.fi_prepared = true;
        fi_protocol = p_protocol;
        fi_sites = (if p_sites <> [] then p_sites else im.Record.fi_sites);
        fi_acceptors =
          (if p_acceptors <> [] then p_acceptors else im.Record.fi_acceptors);
      }
  (* an acceptor that is no participant logs only Paxos records, and
     they alone say which protocol resolves the family here *)
  | Record.Paxos_promised { pp_ballot; _ } ->
      {
        im with
        Record.fi_pax_ballot = max pp_ballot im.Record.fi_pax_ballot;
        fi_protocol = Protocol.Paxos_commit;
      }
  | Record.Paxos_accepted { pa_instance; pa_ballot; pa_vote; _ } ->
      {
        im with
        Record.fi_pax_ballot = max pa_ballot im.Record.fi_pax_ballot;
        fi_pax_accepted =
          (pa_instance, pa_ballot, pa_vote)
          :: List.filter
               (fun (i, _, _) -> i <> pa_instance)
               im.Record.fi_pax_accepted;
        fi_protocol = Protocol.Paxos_commit;
      }
  | Record.Replication { r_sites; r_update_sites; _ } ->
      {
        im with
        Record.fi_quorum = Record.Q_commit;
        fi_sites = r_sites;
        fi_update_sites = r_update_sites;
      }
  | Record.Commit { c_sites; _ } ->
      { im with Record.fi_outcome = Some Protocol.Committed; fi_update_sites = c_sites }
  | Record.Abort _ -> { im with Record.fi_outcome = Some Protocol.Aborted }
  | Record.Refusal _ -> { im with Record.fi_quorum = Record.Q_abort }
  | Record.End _ -> { im with Record.fi_ended = true }

let blank_image root =
  {
    Record.fi_tid = root;
    fi_protocol = Protocol.Two_phase;
    fi_prepared = false;
    fi_sites = [];
    fi_update_sites = [];
    fi_quorum = Record.Q_none;
    fi_outcome = None;
    fi_servers = [];
    fi_ended = false;
    fi_acceptors = [];
    fi_pax_ballot = 0;
    fi_pax_accepted = [];
  }

(* The image of every family the log mentions up to [upto], in order of
   first appearance. The newest checkpoint at or below [upto] seeds the
   fold with its images and in-flight updates (after a truncation it
   sits exactly at base, so the backward scan stays O(window)); the
   records above it fold in. Also returns what value replay needs from
   the same window: that checkpoint's committed values ([] without one)
   and the window's updates in log order, the checkpoint's in-flight
   ones first. *)
let fold_window log ~upto =
  let base = Camelot_wal.Log.base_lsn log in
  let seed = ref None in
  let lsn = ref upto in
  while !seed = None && !lsn >= base do
    (match Camelot_wal.Log.get log !lsn with
    | Record.Checkpoint { ck_families; ck_active; ck_values } ->
        seed := Some (!lsn, ck_families, ck_active, ck_values)
    | _ -> ());
    decr lsn
  done;
  let tbl : (int, Record.family_image) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let set (im : Record.family_image) =
    let k = Tid.key im.Record.fi_tid in
    if not (Hashtbl.mem tbl k) then order := k :: !order;
    Hashtbl.replace tbl k im
  in
  let apply r =
    let root = Tid.top (Record.tid r) in
    let im =
      match Hashtbl.find_opt tbl (Tid.key root) with
      | Some im -> im
      | None -> blank_image root
    in
    set (image_apply im r)
  in
  let updates = ref [] in
  let replay_from, values =
    match !seed with
    | None -> (base, [])
    | Some (ck_lsn, images, ck_active, ck_values) ->
        List.iter set images;
        (* the seeding checkpoint's in-flight updates carry server
           associations, like live update records *)
        List.iter (fun (u : Record.update) -> apply (Record.Update u)) ck_active;
        updates := List.rev ck_active;
        (ck_lsn + 1, ck_values)
  in
  (* no checkpoint lies above the seed *)
  for lsn = replay_from to upto do
    let r = Camelot_wal.Log.get log lsn in
    (match r with Record.Update u -> updates := u :: !updates | _ -> ());
    apply r
  done;
  (List.rev_map (Hashtbl.find tbl) !order, values, List.rev !updates)

let family_images st =
  let images, _, _ = fold_window st.log ~upto:(Camelot_wal.Log.tail_lsn st.log) in
  List.sort (fun a b -> compare a.Record.fi_tid b.Record.fi_tid) images

(* A recovered descriptor is its family's image: everything volatile
   died with the old incarnation. *)
let install st (im : Record.family_image) =
  let fam = find_or_join_family st im.Record.fi_tid in
  fam.f_protocol <- im.Record.fi_protocol;
  fam.f_prepared <- im.Record.fi_prepared;
  fam.f_sites <- im.Record.fi_sites;
  fam.f_update_sites <- im.Record.fi_update_sites;
  fam.f_quorum_side <- im.Record.fi_quorum;
  fam.f_outcome <- im.Record.fi_outcome;
  fam.f_servers <- im.Record.fi_servers;
  fam.f_ended <- im.Record.fi_ended;
  fam.f_acceptors <- im.Record.fi_acceptors;
  fam.f_pax_ballot <- im.Record.fi_pax_ballot;
  fam.f_pax_accepted <- im.Record.fi_pax_accepted

type recovered = {
  in_doubt : Tid.t list;
  ck_values : (string * string * int) list;
  updates : Record.update list;
}

let recover st =
  let images, ck_values, updates =
    fold_window st.log ~upto:(Camelot_wal.Log.durable_lsn st.log)
  in
  (* in first-appearance order, checkpoint images first, as a
     record-by-record replay would create the descriptors: the families
     table's iteration order below depends on it *)
  List.iter (install st) images;
  let in_doubt = ref [] in
  (* resume the acknowledged outcome's notices to the other sites *)
  let renotify fam outcome ~sites =
    let subs = List.filter (fun s -> s <> me st) sites in
    if subs <> [] then Two_phase.start_notify ~outcome st fam ~update_subs:subs
  in
  let abort_here fam =
    resolve_family st fam Protocol.Aborted;
    ignore (log_append st (Record.Abort { a_tid = fam.f_root }) : int)
  in
  let decide fam =
    let coordinator = fam.f_role = Coordinator in
    let presumed = presumption st fam.f_protocol in
    match fam.f_outcome with
    | Some Protocol.Committed
      when presumed = Presume_abort && coordinator && (not fam.f_ended)
           && fam.f_update_sites <> [] ->
        (* decided but not fully acknowledged: resume notification *)
        renotify fam Protocol.Committed ~sites:fam.f_update_sites
    | Some Protocol.Aborted
      when presumed = Presume_commit && coordinator && not fam.f_ended ->
        (* presumed commit: aborts are the acknowledged outcome *)
        renotify fam Protocol.Aborted ~sites:fam.f_sites
    | Some _ -> ()
    | None when coordinator && fam.f_prepared && presumed = Presume_commit ->
        (* a collecting record without an outcome: the decision was
           never made, so the transaction aborts — and must be
           remembered and acknowledged, or it would be presumed
           committed later *)
        abort_here fam;
        renotify fam Protocol.Aborted ~sites:fam.f_sites
    | None when fam.f_prepared || fam.f_quorum_side <> Q_none ->
        in_doubt := fam.f_root :: !in_doubt
    | None ->
        (* never prepared here and no quorum promise: this transaction
           can never commit (any commit requires a durable
           prepare/replication first), so presumed abort resolves it
           now — a blocked subordinate's inquiry then gets a decisive
           answer instead of St_active forever *)
        abort_here fam
  in
  Hashtbl.iter (fun _ fam -> decide fam) st.families;
  (* re-arm the appropriate blocked-state watchdogs: the old
     incarnation's died with it *)
  List.iter
    (fun tid ->
      match find_family st tid with
      | None -> ()
      | Some fam -> arm_watchdog st fam)
    !in_doubt;
  (* every decision is made: what has nothing left to do keeps only its
     answer, which [Recovery.run] reads through [outcome]. A
     coordinator whose notification resumed awaits acknowledgements
     and shrinks at its End record, as at run time. *)
  Hashtbl.fold (fun _ fam acc -> fam :: acc) st.families [] |> List.iter (compact st);
  { in_doubt = !in_doubt; ck_values; updates }
