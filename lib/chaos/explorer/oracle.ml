(* Post-recovery correctness oracles, labeled against the AC1–AC5
   atomic-commitment properties (Gray & Lamport, "Consensus on
   Transaction Commit"). After a chaos run has healed, restarted every
   site and driven every transaction to resolution:

   - AC1 (agreement): all sites that decide reach the same decision —
     value-level all-or-nothing [ac1-atomicity] plus durable-log
     cross-site agreement [ac1-agreement];
   - AC2 (stability): a site cannot reverse a decision it made —
     conflicting durable records at one site [ac2-stability], and a
     commit observed by the application survives the final
     crash-everything restart [ac2-durability];
   - AC3 (votes): the Commit decision only after every participant
     voted yes — a durable Commit naming a participant with no durable
     Prepare/Replication vote [ac3-votes];
   - AC4 (non-triviality): on a fault-free run every transaction must
     actually commit [ac4-nontrivial, only checked when no injection
     fired];
   - AC5 (eventual decision): every transaction resolves once faults
     heal — emitted by the explorer's resolution deadline through
     {!ac5} [ac5-liveness].

   The non-AC oracles keep their original names: presumed-abort
   decision backing, checkpoint truncation integrity, lock hygiene, and
   residual log-discipline rules. *)

open Camelot_core

type violation = { v_oracle : string; v_detail : string }

let v oracle fmt = Printf.ksprintf (fun d -> { v_oracle = oracle; v_detail = d }) fmt

let pp_violation ppf x = Format.fprintf ppf "[%s] %s" x.v_oracle x.v_detail

(* AC5 failure messages come from the explorer, which owns the
   resolution deadlines; routing them through this constructor keeps
   the oracle name in one place. *)
let ac5 fmt = v "ac5-liveness" fmt

(* A fiber that raised stopped the run ([Fiber.Died]): a finding in
   itself, whatever the other oracles would have said. *)
let died name e = v "died" "fiber %s: %s" name (Printexc.to_string e)

(* --- per-site durable-log facts ---------------------------------- *)

(* First durable LSN of each protocol record kind for one top-level
   transaction at one site (-1 = absent). *)
type facts = {
  f_tid : Tid.t;
  mutable commit_at : int;
  mutable abort_at : int;
  mutable prepare_at : int;
  mutable replication_at : int;
  mutable refusal_at : int;
  mutable end_at : int;
  mutable has_update : bool;  (* the transaction wrote data at this site *)
  mutable commit_sites : int list;  (* participants named by the Commit *)
}

let facts_of_log log =
  let tbl : (int, facts) Hashtbl.t = Hashtbl.create 16 in
  let get tid =
    let top = Tid.top tid in
    let k = Tid.key top in
    match Hashtbl.find_opt tbl k with
    | Some f -> f
    | None ->
        let f =
          {
            f_tid = top;
            commit_at = -1;
            abort_at = -1;
            prepare_at = -1;
            replication_at = -1;
            refusal_at = -1;
            end_at = -1;
            has_update = false;
            commit_sites = [];
          }
        in
        Hashtbl.replace tbl k f;
        f
  in
  Camelot_wal.Log.iter_durable log (fun lsn r ->
      match r with
      | Record.Update u -> (get u.Record.u_tid).has_update <- true
      | Record.Collecting _ -> ()
      (* acceptor-side paxos state never decides anything by itself *)
      | Record.Paxos_promised _ | Record.Paxos_accepted _ -> ()
      | Record.Checkpoint { ck_families; _ } ->
          (* family images summarize truncated records: seed the marks
             they stand in for, at the checkpoint's own LSN (first-wins,
             so real records below an untruncated checkpoint keep their
             original positions) *)
          List.iter
            (fun (im : Record.family_image) ->
              let f = get im.Record.fi_tid in
              if im.Record.fi_prepared && f.prepare_at < 0 then f.prepare_at <- lsn;
              (match im.Record.fi_quorum with
              | Record.Q_none -> ()
              | Record.Q_commit ->
                  if f.replication_at < 0 then f.replication_at <- lsn
              | Record.Q_abort -> if f.refusal_at < 0 then f.refusal_at <- lsn);
              (match im.Record.fi_outcome with
              | Some Protocol.Committed ->
                  if f.commit_at < 0 then f.commit_at <- lsn
              | Some Protocol.Aborted -> if f.abort_at < 0 then f.abort_at <- lsn
              | None -> ());
              if im.Record.fi_ended && f.end_at < 0 then f.end_at <- lsn)
            ck_families
      | Record.Prepare { p_tid; _ } ->
          let f = get p_tid in
          if f.prepare_at < 0 then f.prepare_at <- lsn
      | Record.Commit { c_tid; c_sites } ->
          let f = get c_tid in
          if f.commit_at < 0 then begin
            f.commit_at <- lsn;
            f.commit_sites <- c_sites
          end
      | Record.Abort { a_tid } ->
          let f = get a_tid in
          if f.abort_at < 0 then f.abort_at <- lsn
      | Record.Replication { r_tid; _ } ->
          let f = get r_tid in
          if f.replication_at < 0 then f.replication_at <- lsn
      | Record.Refusal { f_tid } ->
          let f = get f_tid in
          if f.refusal_at < 0 then f.refusal_at <- lsn
      | Record.End { e_tid } ->
          let f = get e_tid in
          if f.end_at < 0 then f.end_at <- lsn);
  tbl

let check_log_discipline ~site facts acc =
  Hashtbl.fold
    (fun _ f acc ->
      let tid = Tid.to_string f.f_tid in
      let acc =
        (* AC2: one site, two opposite decisions *)
        if f.commit_at >= 0 && f.abort_at >= 0 then
          v "ac2-stability"
            "site %d logged both Commit (lsn %d) and Abort (lsn %d) for %s"
            site f.commit_at f.abort_at tid
          :: acc
        else acc
      in
      let acc =
        if f.end_at >= 0 && f.commit_at < 0 && f.abort_at < 0 then
          v "log" "site %d logged End (lsn %d) with no prior outcome for %s" site
            f.end_at tid
          :: acc
        else acc
      in
      let acc =
        (* AC3 at the subordinate: it may only hold a commit record for
           a transaction it durably prepared (2PC) or replicated
           (non-blocking) — its own yes vote: presumed abort's whole
           point *)
        if
          f.commit_at >= 0
          && Tid.origin f.f_tid <> site
          && f.prepare_at < 0
          && f.replication_at < 0
        then
          v "ac3-votes"
            "site %d logged Commit (lsn %d) for %s without Prepare or Replication"
            site f.commit_at tid
          :: acc
        else acc
      in
      (* AC2: a Replication is a yes vote, a Refusal a no — one site
         cannot durably cast both *)
      if f.replication_at >= 0 && f.refusal_at >= 0 then
        v "ac2-stability"
          "site %d logged both Replication (lsn %d) and Refusal (lsn %d) for %s"
          site f.replication_at f.refusal_at tid
        :: acc
      else acc)
    facts acc

(* --- cross-site checks -------------------------------------------- *)

(* AC1 across durable logs: once any site committed a transaction, a
   site that voted yes (durable Prepare or Replication) may not hold a
   durable Abort for it. Unvoted sites abort unilaterally all the time
   under presumed abort — that is legal; the conflict needs a yes vote
   on the aborting side. One report per transaction. *)
let check_agreement facts_by_site acc =
  let acc = ref acc in
  let reported = Hashtbl.create 8 in
  Array.iteri
    (fun i tbl ->
      Hashtbl.iter
        (fun k (f : facts) ->
          if f.commit_at >= 0 && not (Hashtbl.mem reported k) then
            Array.iteri
              (fun s tbl' ->
                if not (Hashtbl.mem reported k) then
                  match Hashtbl.find_opt tbl' k with
                  | Some g
                    when g.abort_at >= 0 && g.commit_at < 0
                         && (g.prepare_at >= 0 || g.replication_at >= 0) ->
                      Hashtbl.replace reported k ();
                      acc :=
                        v "ac1-agreement"
                          "%s: site %d durably committed (lsn %d) but voted \
                           site %d durably aborted (lsn %d)"
                          (Tid.to_string f.f_tid) i f.commit_at s g.abort_at
                        :: !acc
                  | _ -> ())
              facts_by_site)
        tbl)
    facts_by_site;
  !acc

(* AC3 at the coordinator: a durable Commit names its update
   participants; each of them must hold a durable yes vote (Prepare or
   Replication) — or at least some decision mark — for the decision to
   have been backed by all votes. Exemptions: the committing site
   itself and the transaction's origin (a non-blocking coordinator is
   its own participant and spools its prepare image volatile — a crash
   legally loses it), and participants with no durable updates (a
   read-only or crashed-before-logging participant never votes under
   presumed abort). *)
let check_ac3 facts_by_site acc =
  let acc = ref acc in
  let reported = Hashtbl.create 8 in
  Array.iteri
    (fun i tbl ->
      Hashtbl.iter
        (fun k (f : facts) ->
          if f.commit_at >= 0 then
            List.iter
              (fun s ->
                if
                  s <> i
                  && s <> Tid.origin f.f_tid
                  && s >= 0
                  && s < Array.length facts_by_site
                  && not (Hashtbl.mem reported (k, s))
                then
                  match Hashtbl.find_opt facts_by_site.(s) k with
                  | Some g
                    when g.has_update && g.prepare_at < 0
                         && g.replication_at < 0 && g.refusal_at < 0
                         && g.commit_at < 0 && g.abort_at < 0 ->
                      Hashtbl.replace reported (k, s) ();
                      acc :=
                        v "ac3-votes"
                          "%s: site %d durably committed (lsn %d) naming \
                           participant %d, which updated data but never \
                           durably voted"
                          (Tid.to_string f.f_tid) i f.commit_at s
                        :: !acc
                  | _ -> ())
              f.commit_sites)
        tbl)
    facts_by_site;
  !acc

(* AC4 on a fault-free run: with no failures and every participant
   able to vote yes, the decision must be Commit — a protocol that
   aborts, stalls or sheds without cause is trivially "safe" and
   useless. Only meaningful when no injection fired. *)
let check_ac4 txns acc =
  List.fold_left
    (fun acc (t : Workload.txn) ->
      if !(t.x_skipped) then
        v "ac4-nontrivial" "%s never ran on a fault-free schedule" t.x_label
        :: acc
      else
        match !(t.x_result) with
        | Some Protocol.Committed -> acc
        | Some Protocol.Aborted ->
            v "ac4-nontrivial" "%s aborted on a fault-free schedule" t.x_label
            :: acc
        | None ->
            v "ac4-nontrivial" "%s undecided on a fault-free schedule" t.x_label
            :: acc)
    acc txns

(* --- whole-cluster check ------------------------------------------ *)

let check ?(fault_free = false) c txns =
  let sites = Camelot.Cluster.sites c in
  let acc = ref [] in
  let add x = acc := x :: !acc in
  let peek site key =
    Camelot_server.Data_server.peek (Camelot.Cluster.server c site) key
  in
  let facts =
    Array.init sites (fun i -> facts_of_log (Camelot.Cluster.log c i))
  in
  (* log discipline per site *)
  for i = 0 to sites - 1 do
    acc := check_log_discipline ~site:i facts.(i) !acc
  done;
  (* cross-site agreement and vote backing *)
  acc := check_agreement facts !acc;
  acc := check_ac3 facts !acc;
  if fault_free then acc := check_ac4 txns !acc;
  (* truncation integrity: a log whose base has advanced must begin
     with the checkpoint that summarizes the dropped prefix *)
  for i = 0 to sites - 1 do
    let log = Camelot.Cluster.log c i in
    let base = Camelot_wal.Log.base_lsn log in
    if base > 0 then
      if base > Camelot_wal.Log.durable_lsn log then
        add (v "truncation" "site %d: base lsn %d beyond durable prefix" i base)
      else
        match Camelot_wal.Log.get log base with
        | Record.Checkpoint _ -> ()
        | r ->
            add
              (v "truncation"
                 "site %d: truncated log starts at lsn %d with %s, not a \
                  Checkpoint"
                 i base
                 (Format.asprintf "%a" Record.pp r))
  done;
  (* per-transaction value oracles *)
  List.iter
    (fun (t : Workload.txn) ->
      let visible = List.map (fun (s, k, x) -> peek s k = x) t.x_writes in
      let n_vis = List.length (List.filter Fun.id visible) in
      let n = List.length t.x_writes in
      let describe () =
        String.concat ", "
          (List.map2
             (fun (s, k, x) vis ->
               Printf.sprintf "%s@%d=%d(%s)" k s x (if vis then "seen" else "gone"))
             t.x_writes visible)
      in
      let committed_somewhere =
        match !(t.x_tid) with
        | None -> false
        | Some tid ->
            let k = Tid.key (Tid.top tid) in
            Array.exists
              (fun tbl ->
                match Hashtbl.find_opt tbl k with
                | Some f -> f.commit_at >= 0
                | None -> false)
              facts
      in
      (match !(t.x_result) with
      | Some Protocol.Committed ->
          (* AC2: the decision the application observed is stable
             across the final crash-everything restart *)
          if n_vis < n then
            add
              (v "ac2-durability"
                 "%s committed but writes lost after restart: %s" t.x_label
                 (describe ()));
          (match !(t.x_tid) with
          | Some tid when not committed_somewhere ->
              add
                (v "ac2-durability"
                   "%s (%s) committed but no durable Commit record anywhere"
                   t.x_label (Tid.to_string tid))
          | _ -> ())
      | Some Protocol.Aborted ->
          if n_vis > 0 then
            add
              (v "ac1-atomicity" "%s aborted but writes survived: %s" t.x_label
                 (describe ()))
      | None ->
          (* the application never learned the outcome (its site
             crashed): recovery must still land on all-or-nothing *)
          if n_vis > 0 && n_vis < n then
            add
              (v "ac1-atomicity"
                 "%s (no observed outcome) is partially applied: %s" t.x_label
                 (describe ())));
      (* a surviving write must be backed by a durable commit decision *)
      if n_vis > 0 && not committed_somewhere then
        add
          (v "presumed-abort"
             "%s has visible writes but no durable Commit record at any site: %s"
             t.x_label (describe ()));
      (* writes of aborted subtransactions must never resurface *)
      List.iter
        (fun (s, k) ->
          let got = peek s k in
          if got <> 0 then
            add
              (v "ac1-atomicity"
                 "%s: aborted-child write %s@%d resurfaced (= %d)" t.x_label k s
                 got))
        t.x_never)
    txns;
  (* lock hygiene: everything resolved, so nothing may still be held *)
  for i = 0 to sites - 1 do
    List.iter
      (fun srv ->
        List.iter
          (fun (key, owner, _) ->
            add
              (v "locks" "site %d server %s: %s still locked by %s" i
                 (Camelot_server.Data_server.name srv)
                 key (Tid.to_string owner)))
          (Camelot_lock.Lock_table.all_held
             (Camelot_server.Data_server.locks srv)))
      (Camelot.Cluster.node c i).Camelot.Cluster.servers
  done;
  List.rev !acc
