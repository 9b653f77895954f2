type update = {
  u_tid : Tid.t;
  u_server : string;
  u_key : string;
  u_old : int;
  u_new : int;
}

(* which quorum a site joined for a non-blocking transaction; the
   family descriptor reads the same type ([State.quorum_side]) *)
type quorum_side = Q_none | Q_commit | Q_abort

(* Everything a checkpoint must remember about a live family so that a
   recovery starting at the checkpoint (instead of LSN 0) reconstructs
   the same descriptor the truncated records would have rebuilt. *)
type family_image = {
  fi_tid : Tid.t;
  fi_protocol : Protocol.commit_protocol;
  fi_prepared : bool;
  fi_sites : Camelot_mach.Site.id list;
  fi_update_sites : Camelot_mach.Site.id list;
  fi_quorum : quorum_side;
  fi_outcome : Protocol.outcome option;
  fi_servers : string list;
  fi_ended : bool;
  fi_acceptors : Camelot_mach.Site.id list;
  fi_pax_ballot : int;
  fi_pax_accepted : (Camelot_mach.Site.id * int * Protocol.vote) list;
}

type t =
  | Update of update
  | Checkpoint of {
      ck_values : (string * string * int) list;
      ck_active : update list;
      ck_families : family_image list;
    }
  | Collecting of {
      g_tid : Tid.t;
      g_sites : Camelot_mach.Site.id list;
      g_protocol : Protocol.commit_protocol;
    }
  | Prepare of {
      p_tid : Tid.t;
      p_coordinator : Camelot_mach.Site.id;
      p_protocol : Protocol.commit_protocol;
      p_sites : Camelot_mach.Site.id list;
      p_acceptors : Camelot_mach.Site.id list;
    }
  | Commit of { c_tid : Tid.t; c_sites : Camelot_mach.Site.id list }
  | Abort of { a_tid : Tid.t }
  | Paxos_promised of { pp_tid : Tid.t; pp_ballot : int }
  | Paxos_accepted of {
      pa_tid : Tid.t;
      pa_instance : Camelot_mach.Site.id;
      pa_ballot : int;
      pa_vote : Protocol.vote;
    }
  | Replication of {
      r_tid : Tid.t;
      r_coordinator : Camelot_mach.Site.id;
      r_sites : Camelot_mach.Site.id list;
      r_update_sites : Camelot_mach.Site.id list;
    }
  | Refusal of { f_tid : Tid.t }
  | End of { e_tid : Tid.t }

(* checkpoints belong to no transaction; callers filter them out first *)
let tid = function
  | Update u -> u.u_tid
  | Checkpoint _ -> invalid_arg "Record.tid: checkpoint"
  | Collecting g -> g.g_tid
  | Prepare p -> p.p_tid
  | Commit c -> c.c_tid
  | Abort a -> a.a_tid
  | Paxos_promised p -> p.pp_tid
  | Paxos_accepted p -> p.pa_tid
  | Replication r -> r.r_tid
  | Refusal f -> f.f_tid
  | End e -> e.e_tid

let pp ppf = function
  | Checkpoint { ck_values; ck_active; ck_families } ->
      Format.fprintf ppf "Checkpoint(%d values, %d in-flight updates, %d families)"
        (List.length ck_values) (List.length ck_active)
        (List.length ck_families)
  | Collecting g ->
      Format.fprintf ppf "Collecting(%a %a sites=[%s])" Tid.pp g.g_tid
        Protocol.pp_commit_protocol g.g_protocol
        (String.concat "," (List.map string_of_int g.g_sites))
  | Update u ->
      Format.fprintf ppf "Update(%a %s/%s %d->%d)" Tid.pp u.u_tid u.u_server
        u.u_key u.u_old u.u_new
  | Prepare p ->
      Format.fprintf ppf "Prepare(%a %a coord=%d sites=[%s])" Tid.pp p.p_tid
        Protocol.pp_commit_protocol p.p_protocol p.p_coordinator
        (String.concat "," (List.map string_of_int p.p_sites))
  | Commit c ->
      Format.fprintf ppf "Commit(%a sites=[%s])" Tid.pp c.c_tid
        (String.concat "," (List.map string_of_int c.c_sites))
  | Abort a -> Format.fprintf ppf "Abort(%a)" Tid.pp a.a_tid
  | Paxos_promised p ->
      Format.fprintf ppf "PaxosPromised(%a b=%d)" Tid.pp p.pp_tid p.pp_ballot
  | Paxos_accepted p ->
      Format.fprintf ppf "PaxosAccepted(%a inst=%d b=%d %a)" Tid.pp p.pa_tid
        p.pa_instance p.pa_ballot Protocol.pp_vote p.pa_vote
  | Replication r ->
      Format.fprintf ppf "Replication(%a coord=%d sites=[%s] upd=[%s])" Tid.pp
        r.r_tid r.r_coordinator
        (String.concat "," (List.map string_of_int r.r_sites))
        (String.concat "," (List.map string_of_int r.r_update_sites))
  | Refusal f -> Format.fprintf ppf "Refusal(%a)" Tid.pp f.f_tid
  | End e -> Format.fprintf ppf "End(%a)" Tid.pp e.e_tid
