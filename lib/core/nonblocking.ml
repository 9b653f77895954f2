(* The non-blocking commitment protocol of §3.3: three phases of
   message exchange, two forced log records per site, and survival of
   any single site crash or partition.

   The five changes to two-phase commit, and where they live here:

   1. The prepare message carries the participant list and the quorum
      size ([coordinate] builds it; quorums are fixed over the full
      participant list at prepare time).
   2. Subordinates time out and become coordinators
      ([Subordinate.start_takeover_watchdog] fires [takeover]; multiple
      simultaneous coordinators are tolerated — decisions are quorum
      decisions, so they agree).
   3. The replication phase: the coordinator forces its [Replication]
      record (which also lands its spooled prepare record), then
      replicates the decision data at subordinates until a commit
      quorum of sites holds it durably. Only then may commit be
      decided; the forced [Commit] record marks the commitment point.
   4. A site joins at most one quorum ([State.quorum_side]; refusal
      records are forced so the promise survives crashes).
   5. The coordinator prepares (spools its prepare record) before
      sending the prepare message.

   Read-only optimization: read-only subordinates vote, drop their
   locks and skip the notify phase; they skip the replication phase too
   unless the coordinator needs them to reach quorum size ("often need
   not participate"). A wholly read-only transaction has the same
   critical path as under two-phase commit. *)

open Camelot_sim
open Camelot_mach
open State

(* Chaos fault points (no-ops unless an explorer is attached). *)
let p_replication_forced = Camelot_chaos.register "nb.replication.forced"
let p_commit_forced = Camelot_chaos.register "nb.commit.forced"
let p_takeover_start = Camelot_chaos.register "nb.takeover.start"
let p_refusal_forced = Camelot_chaos.register "nb.refusal.forced"

(* Decision point reached: force the commit record, answer the
   application, notify in the background. *)
let decide_commit st fam ~notify =
  let tid = fam.f_root in
  ignore
    (log_append_force st (Record.Commit { c_tid = tid; c_sites = fam.f_update_sites })
      : int);
  Camelot_chaos.point ~site:(me st) p_commit_forced;
  resolve_family st fam Protocol.Committed;
  if notify <> [] then Two_phase.start_notify st fam ~update_subs:notify
  else begin
    unregister_waiter st tid;
    log_end st fam
  end;
  Site.spawn st.site ~name:"drop-locks" (fun () -> drop_local_locks st fam);
  Protocol.Committed

(* Replication phase: push the decision data to [targets] until
   [needed] of them have acknowledged durable replication records (the
   coordinator's own record already counts). Retries forever — at this
   point the protocol may no longer abort unilaterally — but adopts any
   outcome decided by a takeover coordinator in the meantime. *)
let replicate_until_quorum st fam mb ~targets ~needed =
  let tid = fam.f_root in
  let replicate_msg =
    Protocol.Replicate
      {
        m_tid = tid;
        m_coordinator = me st;
        m_sites = fam.f_sites;
        m_update_sites = fam.f_update_sites;
      }
  in
  fan_out st ~dsts:targets replicate_msg;
  let acked = ref [] in
  let rec wait_quorum () =
    if fam.f_outcome <> None then `Adopted
    else if List.length !acked >= needed then `Quorum
    else
      match Mailbox.recv_timeout mb st.config.vote_timeout_ms with
      | Some (Protocol.Replicate_ack { m_from; _ }) ->
          charge_cpu st;
          if not (List.mem m_from !acked) then acked := m_from :: !acked;
          wait_quorum ()
      | Some _ -> wait_quorum ()
      | None ->
          let missing = List.filter (fun s -> not (List.mem s !acked)) targets in
          tracef st "nb" "%a: re-replicating to %d site(s)" Tid.pp tid
            (List.length missing);
          fan_out st ~dsts:missing replicate_msg;
          wait_quorum ()
  in
  wait_quorum ()

(* Entry point: coordinator side, once the local vote is yes and at
   least one subordinate exists. Runs on a TranMan pool thread. *)
let coordinate st fam ~local_ro =
  let tid = fam.f_root in
  let subs = fam.f_remote_sites in
  let all_sites = me st :: subs in
  let quorum = nb_quorum st ~domain_size:(List.length all_sites) in
  fam.f_sites <- all_sites;
  fam.f_commit_quorum <- quorum;
  (* change 5: prepare before sending the prepare message (the record
     rides the replication force) *)
  ignore
    (log_append st
       (Record.Prepare
          {
            p_tid = tid;
            p_coordinator = me st;
            p_protocol = Protocol.Nonblocking;
            p_sites = all_sites;
            p_acceptors = [];
          })
      : int);
  fam.f_prepared <- true;
  let mb = register_waiter st tid in
  let prepare_msg =
    Protocol.Prepare
      {
        m_tid = tid;
        m_coordinator = me st;
        m_protocol = Protocol.Nonblocking;
        m_sites = all_sites;
        m_commit_quorum = quorum;
        m_acceptors = [];
      }
  in
  fan_out st ~dsts:subs prepare_msg;
  let votes = Two_phase.collect_votes st fam mb ~subs ~prepare_msg in
  match fam.f_outcome with
  | Some adopted ->
      unregister_waiter st tid;
      adopted
  | None ->
      if votes.Two_phase.refused || votes.Two_phase.n_pending > 0 then begin
        (* no replication data exists anywhere yet: abort is still
           unilateral, as in presumed-abort 2PC *)
        unregister_waiter st tid;
        Two_phase.abort_distributed st fam ~subs
      end
      else begin
        Camelot_chaos.point ~site:(me st) Two_phase.p_votes_collected;
        let ro_subs = votes.Two_phase.read_only_subs in
        let update_subs = List.filter (fun s -> not (List.mem s ro_subs)) subs in
        (* wholly read-only: one round of messages, no forces *)
        if update_subs = [] && local_ro && st.config.read_only_optimization then
          Two_phase.finish_read_only st fam
        else begin
          fam.f_update_sites <- me st :: update_subs;
          (* replication targets: update subordinates, plus read-only
             ones only if needed to reach quorum *)
          let still_needed = max 0 (quorum - 1 - List.length update_subs) in
          let drafted_ro = List.filteri (fun i _ -> i < still_needed) ro_subs in
          let targets = update_subs @ drafted_ro in
          (* claim the commit side under the family lock (§3.4): a
             takeover's Join_abort_quorum can race this force, and one
             site must never log both a Replication and a Refusal
             record (change 4) *)
          let claimed =
            with_family_lock fam (fun () ->
                if fam.f_outcome <> None || fam.f_quorum_side = Q_abort then false
                else begin
                  ignore
                    (log_append_force st
                       (Record.Replication
                          {
                            r_tid = tid;
                            r_coordinator = me st;
                            r_sites = all_sites;
                            r_update_sites = fam.f_update_sites;
                          })
                      : int);
                  Camelot_chaos.note_quorum ~site:(me st) ~commit:true;
                  Camelot_chaos.point ~site:(me st) p_replication_forced;
                  fam.f_quorum_side <- Q_commit;
                  true
                end)
          in
          if not claimed then begin
            unregister_waiter st tid;
            match fam.f_outcome with
            | Some o -> o
            | None -> Two_phase.abort_distributed st fam ~subs
          end
          else
            match replicate_until_quorum st fam mb ~targets ~needed:(quorum - 1) with
            | `Adopted -> (
                unregister_waiter st tid;
                match fam.f_outcome with Some o -> o | None -> assert false)
            | `Quorum ->
                (* notify update subordinates only; drafted read-only
                   sites hold a replication record but need no outcome
                   (they hold no locks) *)
                decide_commit st fam ~notify:update_subs
        end
      end

(* ---------------------------------------------------------------- *)
(* Takeover: a subordinate that timed out finishes the transaction
   (change 2). It polls every participant for status, then decides by
   quorum: a visible commit quorum -> commit; otherwise it assembles an
   abort quorum of sites that forcibly promise never to commit. If
   neither quorum is reachable (two or more failures), it stays blocked
   and retries — which is optimal [Skeen; Dwork & Skeen]. *)

type poll = {
  mutable statuses : (Camelot_mach.Site.id * Protocol.status) list;
  mutable refusals : Camelot_mach.Site.id list;
}

let poll_round st fam mb ~peers poll =
  let tid = fam.f_root in
  poll.statuses <- [];
  fan_out st ~dsts:peers (Protocol.Inquiry { m_tid = tid; m_from = me st });
  recv_until st mb ~timeout_ms:st.config.vote_timeout_ms
    ~until:(fun () -> List.length poll.statuses >= List.length peers)
    (function
      | Protocol.Status { m_from; m_status; _ } ->
          charge_cpu st;
          if not (List.mem_assoc m_from poll.statuses) then
            poll.statuses <- (m_from, m_status) :: poll.statuses
      | Protocol.Refused { m_from; m_ok = true; _ } ->
          if not (List.mem m_from poll.refusals) then
            poll.refusals <- m_from :: poll.refusals
      | _ -> ())

let gather_refusals st fam mb ~candidates poll ~needed =
  let tid = fam.f_root in
  fan_out st ~dsts:candidates (Protocol.Join_abort_quorum { m_tid = tid; m_from = me st });
  recv_until st mb ~timeout_ms:st.config.vote_timeout_ms
    ~until:(fun () -> List.length poll.refusals >= needed)
    (function
      | Protocol.Refused { m_from; m_ok = true; _ } ->
          charge_cpu st;
          if not (List.mem m_from poll.refusals) then
            poll.refusals <- m_from :: poll.refusals
      | _ -> ())

let takeover st fam =
  Camelot_chaos.point ~site:(me st) p_takeover_start;
  let tid = fam.f_root in
  let peers = List.filter (fun s -> s <> me st) fam.f_sites in
  let n = List.length fam.f_sites in
  let vc = if fam.f_commit_quorum > 0 then fam.f_commit_quorum else majority n in
  let va = n - vc + 1 in
  let mb = register_waiter st tid in
  let poll = { statuses = []; refusals = [] } in
  let rec round () =
    match fam.f_outcome with
    | Some outcome -> Subordinate.adopt st fam outcome
    | None ->
        poll_round st fam mb ~peers poll;
        let seen status =
          List.exists (fun (_, s) -> s = status) poll.statuses
        in
        if fam.f_outcome <> None then
          Subordinate.adopt st fam (Option.get fam.f_outcome)
        else if seen Protocol.St_committed then
          Subordinate.adopt st fam Protocol.Committed
        else if seen Protocol.St_aborted then
          Subordinate.adopt st fam Protocol.Aborted
        else begin
          let replicated_peers =
            List.filter_map
              (fun (s, st_) -> if st_ = Protocol.St_replicated then Some s else None)
              poll.statuses
          in
          let my_commit_side = fam.f_quorum_side = Q_commit in
          let commit_count =
            List.length replicated_peers + if my_commit_side then 1 else 0
          in
          if commit_count >= vc then Subordinate.adopt st fam Protocol.Committed
          else begin
            (* assemble an abort quorum among sites not on the commit
               side (change 4 keeps the quorums disjoint); the side is
               re-checked under the family lock because a concurrent
               Replicate handler may be forcing a Replication record *)
            let joined_abort =
              with_family_lock fam (fun () ->
                  if fam.f_quorum_side = Q_none && fam.f_outcome = None then begin
                    ignore
                      (log_append_force st (Record.Refusal { f_tid = tid }) : int);
                    Camelot_chaos.note_quorum ~site:(me st) ~commit:false;
                    Camelot_chaos.point ~site:(me st) p_refusal_forced;
                    fam.f_quorum_side <- Q_abort
                  end;
                  fam.f_quorum_side = Q_abort)
            in
            if joined_abort && not (List.mem (me st) poll.refusals) then
              poll.refusals <- me st :: poll.refusals;
            let candidates =
              List.filter (fun s -> not (List.mem s replicated_peers)) peers
            in
            if List.length poll.refusals < va then
              gather_refusals st fam mb ~candidates poll ~needed:va;
            if List.length poll.refusals >= va then
              Subordinate.adopt st fam Protocol.Aborted
            else begin
              tracef st "nb" "takeover %a blocked (commit side %d/%d, refusals %d/%d)"
                Tid.pp tid commit_count vc (List.length poll.refusals) va;
              Fiber.sleep st.config.takeover_retry_ms;
              round ()
            end
          end
        end
  in
  round ();
  unregister_waiter st tid
