(* Internal shared state of a transaction manager: family/transaction
   descriptors, configuration, message plumbing, the local-server
   operations (vote, drop locks, undo) that all four commit protocols
   use, and the rule that fixes each protocol's presumption.

   The public face of all this is [Tranman]; everything here is
   library-internal. *)

open Camelot_sim
open Camelot_mach

(* Which outcome an inquiry about a forgotten transaction implies
   (Mohan & Lindsay). Camelot uses presumed abort; presumed commit is
   implemented as an extension for the cost comparison: it saves the
   commit-acknowledgement round entirely, at the price of a forced
   "collecting" record at the coordinator before voting starts, and of
   acknowledged, forced abort records. *)
type presumption = Presume_abort | Presume_commit

(* The three §4.2 write-transaction protocol variants:
   - [Optimized]: subordinate drops locks before writing its commit
     record, the record is not forced, and the commit-ack is
     piggybacked (sent only once the record reaches the disk via a
     later force or the background flusher);
   - [Semi_optimized]: the commit record is forced, but the ack is
     still piggybacked;
   - [Unoptimized]: the record is forced and the ack is sent
     immediately as its own datagram. *)
type two_phase_variant = Optimized | Semi_optimized | Unoptimized

type config = {
  mutable threads : int;  (* read once, when the TranMan is created *)
  mutable two_phase_variant : two_phase_variant;
  mutable presumption : presumption;
  mutable multicast : bool;  (* coordinator->subordinates fan-out *)
  mutable read_only_optimization : bool;
  mutable vote_timeout_ms : float;
  mutable max_vote_retries : int;
  mutable outcome_retry_ms : float;
  mutable subordinate_timeout_ms : float;  (* silence before inquiry/takeover *)
  mutable takeover_retry_ms : float;  (* non-blocking: pause between takeover rounds *)
  mutable commit_quorum : int option;  (* non-blocking: override majority *)
  mutable orphan_timeout_ms : float;
      (* a joined-but-never-prepared subordinate family inquires after
         this much silence: if the coordinator no longer knows the
         transaction (client crash), presumed abort frees the locks *)
  mutable unsafe_skip_prepare_force : bool;
      (* deliberate bug knob for the chaos explorer's self-test: spool
         the subordinate's prepare record instead of forcing it, so a
         crash between vote and outcome loses the prepared state *)
  mutable paxos_f : int;
      (* paxos commit: tolerated acceptor failures; the acceptor set is
         the first 2F+1 of coordinator :: participants. F = 0 keeps the
         sole acceptor co-located with the coordinator and collapses to
         2PC's message and force counts *)
}

let default_config ?(threads = 5) () =
  {
    threads;
    two_phase_variant = Optimized;
    presumption = Presume_abort;
    multicast = false;
    read_only_optimization = true;
    vote_timeout_ms = 200.0;
    max_vote_retries = 3;
    outcome_retry_ms = 400.0;
    subordinate_timeout_ms = 1500.0;
    takeover_retry_ms = 500.0;
    commit_quorum = None;
    orphan_timeout_ms = 10_000.0;
    unsafe_skip_prepare_force = false;
    paxos_f = 0;
  }

(* An independent mutable copy (each site owns its configuration). *)
let copy_config c = { c with threads = c.threads }

(* What a data server plugs into its local transaction manager. The
   server library implements these against real object storage; tests
   may use stubs. *)
type server_callbacks = {
  sv_name : string;
  sv_vote : Tid.t -> Protocol.vote;
      (* prepare: flush nothing (updates were spooled at operation
         time), just answer whether the family may commit here and
         whether it was read-only *)
  sv_commit : Tid.t -> unit;  (* family committed: drop locks, discard undo *)
  sv_abort : Tid.t -> unit;  (* undo the subtree rooted at tid, drop its locks *)
  sv_subcommit : Tid.t -> unit;  (* nested commit: anti-inherit to parent *)
  sv_release : Tid.t -> unit;
      (* short-commit early release: drop the family's locks but KEEP
         its undo information — the outcome is still undecided *)
}

(* Per-transaction descriptor inside a family (paper §3.4: a hash table
   of transaction descriptors hangs off each family descriptor). The
   root's descriptor lives in the family itself; the table exists only
   once a nested member joins. *)
type member = {
  mem_tid : Tid.t;
  mutable mem_resolved : Protocol.outcome option;  (* nested commit/abort *)
  mutable mem_children : int;  (* child naming counter *)
}

type role = Coordinator | Subordinate

(* Which quorum this site has joined for a non-blocking transaction
   (change 4 of §3.3: never both); a checkpoint image carries it as
   is. *)
type quorum_side = Record.quorum_side = Q_none | Q_commit | Q_abort

type family = {
  f_root : Tid.t;
  f_role : role;
  mutable f_mutex : Sync.Mutex.t option;
      (* per-family lock, paper §3.4; created by [with_family_lock] *)
  f_top : member;  (* the root's own descriptor *)
  mutable f_members : (Tid.t, member) Hashtbl.t option;
      (* every member, root first; [None] until a nested member joins *)
  mutable f_servers : string list;  (* local servers that joined *)
  mutable f_remote_sites : Site.id list;  (* coordinator: where it spread *)
  mutable f_protocol : Protocol.commit_protocol;
  mutable f_sites : Site.id list;  (* non-blocking: full participant list *)
  mutable f_commit_quorum : int;  (* non-blocking: replication quorum *)
  mutable f_prepared : bool;  (* subordinate voted yes / coordinator logged *)
  mutable f_read_only_done : bool;
      (* read-only subordinate: voted, dropped locks, forgot — answers
         inquiries "unknown" but may still be drafted into a quorum *)
  mutable f_update_sites : Site.id list;  (* non-blocking replication domain *)
  mutable f_quorum_side : quorum_side;
  mutable f_outcome : Protocol.outcome option;
  mutable f_acks_pending : Site.id list;  (* coordinator: commit-acks awaited *)
  mutable f_ended : bool;  (* an End record was written: nothing more to do *)
  mutable f_watchdog : Engine.timer;
      (* a subordinate's one protocol timer while it waits for its
         coordinator: the orphan inquiry until it prepares, then the
         inquiry or takeover timer; [Engine.no_timer] until armed and
         again once resolved *)
  mutable f_acceptors : Site.id list;  (* paxos: the 2F+1 acceptor set *)
  mutable f_pax_ballot : int;
      (* paxos acceptor: highest ballot promised or accepted; 0 is the
         participants' own vote ballot, takeovers go higher *)
  mutable f_pax_accepted : (Site.id * int * Protocol.vote) list;
      (* paxos acceptor: per-instance (participant, ballot, vote)
         acceptances, newest ballot wins per instance *)
}

(* What a resolved family keeps once its protocol has nothing left to
   do: its answer. Immutable, and shared: [markers] holds one per
   outcome, protocol and role. *)
type marker = {
  mk_outcome : Protocol.outcome;
  mk_protocol : Protocol.commit_protocol;
  mk_role : role;
}

(* What a read path learns of a family: nothing, its unresolved
   record, or its outcome, read from the resolved record or its
   marker. *)
type view = Unknown | Open of family | Decided of Protocol.outcome

type stats = {
  mutable n_begun : int;
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_distributed : int;
  mutable n_takeovers : int;
  mutable n_inquiries : int;
  mutable n_heuristic : int;  (* operator-resolved blocked transactions *)
  mutable n_heuristic_damage : int;  (* ...that contradicted the real outcome *)
}

type t = {
  site : Site.t;
  lan : Camelot_net.Lan.t;
  log : Record.t Camelot_wal.Log.t;
  config : config;
  directory : (Site.id, Protocol.t Camelot_net.Lan.endpoint) Hashtbl.t;
  mutable endpoint : Protocol.t Camelot_net.Lan.endpoint option;
  pool : Dispatch.t;  (* one shard: the §3.4 worker pool *)
  families : (int, family) Hashtbl.t;  (* keyed by Tid.family_key *)
  resolved : (int, marker) Hashtbl.t;
      (* compacted families' markers, keyed like [families]; a family is
         in at most one of the two *)
  servers : (string, server_callbacks) Hashtbl.t;
  mutable next_seq : int;
  waiters : (int, Protocol.t Mailbox.t) Hashtbl.t;  (* keyed by Tid.family_key *)
  stats : stats;
  trace : Trace.t;
}

let engine st = Site.engine st.site
let model st = Site.model st.site
let me st = Site.id st.site

let tracing st = Trace.enabled st.trace

let tracef st tag fmt = Trace.record st.trace (engine st) ~tag fmt

(* A timer expiry's raw work runs one same-instant event after the
   timer fires, which is where a fiber the timer spawns starts. So
   expiries due at the same instant run in the order their timers were
   armed, whether their work runs raw or in a fiber. *)
let defer st f = Engine.schedule (engine st) ~delay:0.0 f

(* ------------------------------------------------------------------ *)
(* CPU accounting *)

(* Every protocol action costs TranMan CPU; a small jitter component
   models OS scheduling noise (the paper's measured variances dwarf the
   primitive sums even when the network is idle). *)
let charge_cpu st =
  let m = model st in
  let base = m.Cost_model.tranman_cpu_ms in
  let jitter = Rng.exponential (Site.rng st.site) ~mean:(0.2 *. base) in
  Site.cpu_use st.site (base +. jitter)

(* ------------------------------------------------------------------ *)
(* Families *)

let family_key tid = Tid.family_key tid

(* The two [Some]s are static constants, so storing one allocates
   nothing. *)
let some_outcome = function
  | Protocol.Committed -> Some Protocol.Committed
  | Protocol.Aborted -> Some Protocol.Aborted

let blank_family ~root ~role ~protocol =
  {
    f_root = root;
    f_role = role;
    f_mutex = None;
    f_top = { mem_tid = root; mem_resolved = None; mem_children = 0 };
    f_members = None;
    f_servers = [];
    f_remote_sites = [];
    f_protocol = protocol;
    f_sites = [];
    f_commit_quorum = 0;
    f_prepared = false;
    f_read_only_done = false;
    f_update_sites = [];
    f_quorum_side = Q_none;
    f_outcome = None;
    f_acks_pending = [];
    f_ended = false;
    f_watchdog = Engine.no_timer;
    f_acceptors = [];
    f_pax_ballot = 0;
    f_pax_accepted = [];
  }

let new_family st ~root ~role ~protocol =
  let fam = blank_family ~root ~role ~protocol in
  Hashtbl.replace st.families (family_key root) fam;
  fam

(* Both [Decided]s are static constants, and [Open] costs what the
   [Some] of a plain lookup did. *)
let decided = function
  | Protocol.Committed -> Decided Protocol.Committed
  | Protocol.Aborted -> Decided Protocol.Aborted

let view st tid =
  let key = family_key tid in
  match Hashtbl.find st.families key with
  | { f_outcome = None; _ } as fam -> Open fam
  | { f_outcome = Some o; _ } -> decided o
  | exception Not_found -> (
      match Hashtbl.find st.resolved key with
      | m -> decided m.mk_outcome
      | exception Not_found -> Unknown)

(* A write path: a marker comes back as a fresh resolved record, which
   takes its place. Read paths answer from the marker instead
   ([view]): rebuilding there would bring the record back on every
   duplicate outcome notice. *)
let find_family st tid =
  let key = family_key tid in
  match Hashtbl.find st.families key with
  | fam -> Some fam
  | exception Not_found -> (
      match Hashtbl.find st.resolved key with
      | m ->
          let fam =
            blank_family ~root:(Tid.top tid) ~role:m.mk_role ~protocol:m.mk_protocol
          in
          fam.f_outcome <- some_outcome m.mk_outcome;
          Hashtbl.remove st.resolved key;
          Hashtbl.replace st.families key fam;
          Some fam
      | exception Not_found -> None)

(* Find the family, creating a subordinate-side descriptor if this is
   the first we hear of it (a remote operation or a prepare arriving). *)
let find_or_join_family st tid =
  match find_family st tid with
  | Some fam -> fam
  | None ->
      let role = if Tid.origin tid = me st then Coordinator else Subordinate in
      new_family st ~root:(Tid.top tid) ~role ~protocol:Protocol.Two_phase

(* One marker per outcome, protocol and role; Paxos Commit has none. *)
let markers =
  let outcomes = [| Protocol.Committed; Protocol.Aborted |]
  and protocols = [| Protocol.Two_phase; Protocol.Short_commit; Protocol.Nonblocking |]
  and roles = [| Coordinator; Subordinate |] in
  Array.init 12 (fun i ->
      {
        mk_outcome = outcomes.(i / 6);
        mk_protocol = protocols.(i / 2 mod 3);
        mk_role = roles.(i mod 2);
      })

(* The compaction rule: a resolved family whose protocol has nothing
   left to do here becomes its marker. Callers invoke it at that point
   (a coordinator's End record or presumed-abort abort, a subordinate's
   applied outcome, the end of restart's decisions); it also checks
   that no acknowledgement is awaited. Two kinds keep their record:
   Paxos Commit families, since an acceptor may be asked to promise a
   higher ballot again at any time, and families with nested members,
   whose members table still answers nested calls. A record whose
   family lock is held stays too, so a fiber waiting on that lock and a
   later lookup never hold two different records. A family no longer
   in the table (forgotten, or of a crashed incarnation) stays out. *)
let compact st fam =
  match fam.f_outcome with
  | None -> ()
  | Some outcome -> (
      let protocol =
        match fam.f_protocol with
        | Protocol.Two_phase -> 0
        | Protocol.Short_commit -> 1
        | Protocol.Nonblocking -> 2
        | Protocol.Paxos_commit -> -1
      in
      let locked =
        match fam.f_mutex with Some m -> Sync.Mutex.locked m | None -> false
      in
      if protocol >= 0 && fam.f_members = None && fam.f_acks_pending = [] && not locked
      then
        let key = family_key fam.f_root in
        match Hashtbl.find st.families key with
        | f when f == fam ->
            let o = match outcome with Protocol.Committed -> 0 | Protocol.Aborted -> 1 in
            let r = match fam.f_role with Coordinator -> 0 | Subordinate -> 1 in
            Hashtbl.remove st.families key;
            Hashtbl.replace st.resolved key markers.((o * 6) + (protocol * 2) + r)
        | _ | (exception Not_found) -> ())

(* The table is built as every family once built it at creation:
   [Hashtbl.create 8], root inserted first. The first resize and the
   order within buckets depend on that insertion history, and
   [unresolved_children] folds in bucket order, which fixes the order
   children abort in. *)
let member fam tid =
  if Tid.is_top tid then fam.f_top
  else
    let members =
      match fam.f_members with
      | Some members -> members
      | None ->
          let members = Hashtbl.create 8 in
          Hashtbl.replace members fam.f_root fam.f_top;
          fam.f_members <- Some members;
          members
    in
    match Hashtbl.find_opt members tid with
    | Some m -> m
    | None ->
        let m = { mem_tid = tid; mem_resolved = None; mem_children = 0 } in
        Hashtbl.replace members tid m;
        m

(* Is every proper descendant of [root] resolved? Top-level commit
   requires it. *)
let unresolved_children fam =
  match fam.f_members with
  | None -> []
  | Some members ->
      Hashtbl.fold
        (fun tid m acc ->
          if (not (Tid.is_top tid)) && m.mem_resolved = None then tid :: acc
          else acc)
        members []

(* Only non-blocking quorum claims and Paxos acceptor state take the
   family lock, so most families never build one. *)
let with_family_lock fam f =
  let mutex =
    match fam.f_mutex with
    | Some mutex -> mutex
    | None ->
        let mutex = Sync.Mutex.create () in
        fam.f_mutex <- Some mutex;
        mutex
  in
  Sync.Mutex.with_lock mutex f

(* ------------------------------------------------------------------ *)
(* Messaging *)

let endpoint_of st site_id = Hashtbl.find_opt st.directory site_id

let send st ~dst msg =
  match endpoint_of st dst with
  | None -> if tracing st then tracef st "send" "no endpoint for site %d" dst
  | Some ep ->
      if tracing st then tracef st "send" "-> %d: %a" dst Protocol.pp msg;
      Camelot_net.Lan.send st.lan ~src:st.site ep msg

let send_piggybacked st ~dst msg =
  match endpoint_of st dst with
  | None -> ()
  | Some ep ->
      if tracing st then
        tracef st "send" "-> %d (piggyback): %a" dst Protocol.pp msg;
      Camelot_net.Lan.send_piggybacked st.lan ~src:st.site ep msg

(* The notice of a family's outcome, from this site: the message every
   coordinator, original or takeover, sends its subordinates. *)
let outcome_notice st fam outcome =
  Protocol.Outcome
    {
      m_tid = fam.f_root;
      m_from = me st;
      m_outcome = outcome;
      m_protocol = fam.f_protocol;
    }

(* Coordinator fan-out: one multicast or a serialized train of unicasts
   — the §4.2/§6 experimental knob. *)
let fan_out st ~dsts msg =
  if st.config.multicast then begin
    let eps = List.filter_map (endpoint_of st) dsts in
    if tracing st then
      tracef st "send" "multicast -> [%s]: %a"
        (String.concat "," (List.map string_of_int dsts))
        Protocol.pp msg;
    Camelot_net.Lan.multicast st.lan ~src:st.site eps msg
  end
  else List.iter (fun dst -> send st ~dst msg) dsts

(* Response routing: a coordinator (original or takeover) registers a
   mailbox; the dispatcher drops votes/acks/status replies into it. *)
let register_waiter st tid =
  let mb = Mailbox.create (engine st) in
  Hashtbl.replace st.waiters (family_key tid) mb;
  mb

let unregister_waiter st tid = Hashtbl.remove st.waiters (family_key tid)

let waiter st tid = Hashtbl.find_opt st.waiters (family_key tid)

(* ------------------------------------------------------------------ *)
(* Log plumbing *)

let log_append st record = Camelot_wal.Log.append st.log record

let log_force st =
  tracef st "log" "force";
  Camelot_wal.Log.force st.log

let log_append_force st record =
  let lsn = Camelot_wal.Log.append st.log record in
  log_force st;
  lsn

(* ------------------------------------------------------------------ *)
(* Local server operations *)

let server_callbacks st name = Hashtbl.find_opt st.servers name

(* Ask every joined local server for its vote, charging one local IPC
   each (Figure 1, step 8). Returns the combined vote. *)
let vote_local_servers st fam =
  let tid = fam.f_root in
  let combine acc vote =
    match (acc, vote) with
    | Protocol.Vote_no, _ | _, Protocol.Vote_no -> Protocol.Vote_no
    | Protocol.Vote_yes { read_only = a }, Protocol.Vote_yes { read_only = b } ->
        Protocol.Vote_yes { read_only = a && b }
  in
  List.fold_left
    (fun acc name ->
      match server_callbacks st name with
      | None -> Protocol.Vote_no
      | Some cb ->
          Rpc.local_ipc st.site;
          combine acc (cb.sv_vote tid))
    (Protocol.Vote_yes { read_only = true })
    fam.f_servers

(* One one-way message to every joined local server, naming [tid]:
   [call] picks the callback it invokes. *)
let tell_local_servers st fam tid call =
  List.iter
    (fun name ->
      match server_callbacks st name with
      | None -> ()
      | Some cb ->
          Rpc.oneway_ipc st.site;
          call cb tid)
    fam.f_servers

(* Tell every joined local server to drop the family's locks (Figure 1,
   step 11). *)
let drop_local_locks st fam =
  tell_local_servers st fam fam.f_root (fun cb -> cb.sv_commit)

(* Short-commit early release: drop the family's locks at every joined
   local server while keeping undo information (the decision is still
   out; an abort must still restore). *)
let release_local_locks st fam =
  tell_local_servers st fam fam.f_root (fun cb -> cb.sv_release)

(* Undo the family's local effects. *)
let abort_local st fam =
  tell_local_servers st fam fam.f_root (fun cb -> cb.sv_abort)

(* ------------------------------------------------------------------ *)
(* Status *)

let status_of_family st tid : Protocol.status =
  match view st tid with
  | Unknown -> Protocol.St_unknown
  | Decided Protocol.Committed -> Protocol.St_committed
  | Decided Protocol.Aborted -> Protocol.St_aborted
  | Open fam -> (
      match fam.f_quorum_side with
      | Q_commit -> Protocol.St_replicated
      | Q_abort -> Protocol.St_refused
      | Q_none ->
          if fam.f_read_only_done then Protocol.St_unknown
          else if fam.f_prepared then Protocol.St_prepared
          else Protocol.St_active)

(* Mark resolved. The record stays until the protocol has nothing left
   to do here ([compact]), so retransmissions and acknowledgements
   still find it. [Tranman.commit] and [abort] forget a local family
   after this, not here: [Tranman.recover] calls this while it iterates
   [families]. Resolving allocates nothing. *)
let resolve_family st fam outcome =
  if fam.f_outcome = None then begin
    fam.f_outcome <- some_outcome outcome;
    (match outcome with
    | Protocol.Committed -> st.stats.n_committed <- st.stats.n_committed + 1
    | Protocol.Aborted -> st.stats.n_aborted <- st.stats.n_aborted + 1);
    (* a resolved family parks nothing: its timer is disarmed *)
    Engine.cancel (engine st) fam.f_watchdog;
    fam.f_watchdog <- Engine.no_timer;
    if tracing st then
      tracef st "txn" "%a resolved: %a" Tid.pp fam.f_root Protocol.pp_outcome
        outcome
  end

(* A coordinator's End record: every acknowledgement is in, so nothing
   is left to do and the family shrinks to its marker. *)
let log_end st fam =
  ignore (log_append st (Record.End { e_tid = fam.f_root }) : int);
  fam.f_ended <- true;
  compact st fam

(* The quorum domain of a non-blocking transaction: the sites that hold
   (or will hold) log records for it — update sites plus coordinator. *)
let majority n = (n / 2) + 1

let nb_quorum st ~domain_size =
  match st.config.commit_quorum with
  | Some q -> max 1 (min q domain_size)
  | None -> majority domain_size

(* ------------------------------------------------------------------ *)
(* The presumption rule *)

(* What a forgotten coordinator implies under each protocol. Only 2PC
   reads the configured presumption; short-commit presumes commit
   because its commit notices travel unacknowledged, and the two
   protocols that survive a coordinator failure resolve an unknown
   family through their takeover machinery, never by presumption, so
   they keep Camelot's presumed abort. *)
let presumption st = function
  | Protocol.Two_phase -> st.config.presumption
  | Protocol.Short_commit -> Presume_commit
  | Protocol.Nonblocking | Protocol.Paxos_commit -> Presume_abort

(* ------------------------------------------------------------------ *)
(* Deadline-bounded mailbox drains *)

let recv_until st mb ~timeout_ms ~until handle =
  let deadline = Engine.now (engine st) +. timeout_ms in
  let rec drain () =
    if not (until ()) then begin
      let remaining = deadline -. Engine.now (engine st) in
      if remaining > 0.0 then
        match Mailbox.recv_timeout mb remaining with
        | Some msg ->
            handle msg;
            drain ()
        | None -> ()
    end
  in
  drain ()
