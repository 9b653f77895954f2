type outcome = Committed | Aborted

let pp_outcome ppf = function
  | Committed -> Format.pp_print_string ppf "committed"
  | Aborted -> Format.pp_print_string ppf "aborted"

type commit_protocol = Two_phase | Nonblocking | Paxos_commit | Short_commit

let pp_commit_protocol ppf = function
  | Two_phase -> Format.pp_print_string ppf "2PC"
  | Nonblocking -> Format.pp_print_string ppf "NB"
  | Paxos_commit -> Format.pp_print_string ppf "PAXOS"
  | Short_commit -> Format.pp_print_string ppf "SHORT"

type vote = Vote_yes of { read_only : bool } | Vote_no

type status =
  | St_unknown
  | St_active
  | St_prepared
  | St_replicated
  | St_refused
  | St_committed
  | St_aborted

let pp_status ppf s =
  Format.pp_print_string ppf
    (match s with
    | St_unknown -> "unknown"
    | St_active -> "active"
    | St_prepared -> "prepared"
    | St_replicated -> "replicated"
    | St_refused -> "refused"
    | St_committed -> "committed"
    | St_aborted -> "aborted")

type t =
  | Prepare of {
      m_tid : Tid.t;
      m_coordinator : Camelot_mach.Site.id;
      m_protocol : commit_protocol;
      m_sites : Camelot_mach.Site.id list;
      m_commit_quorum : int;
      m_acceptors : Camelot_mach.Site.id list;
    }
  | Vote of { m_tid : Tid.t; m_from : Camelot_mach.Site.id; m_vote : vote }
  | Replicate of {
      m_tid : Tid.t;
      m_coordinator : Camelot_mach.Site.id;
      m_sites : Camelot_mach.Site.id list;
      m_update_sites : Camelot_mach.Site.id list;
    }
  | Replicate_ack of { m_tid : Tid.t; m_from : Camelot_mach.Site.id }
  | Outcome of {
      m_tid : Tid.t;
      m_from : Camelot_mach.Site.id;
      m_outcome : outcome;
      m_protocol : commit_protocol;
    }
  | Outcome_ack of { m_tid : Tid.t; m_from : Camelot_mach.Site.id }
  | Inquiry of { m_tid : Tid.t; m_from : Camelot_mach.Site.id }
  | Status of { m_tid : Tid.t; m_from : Camelot_mach.Site.id; m_status : status }
  | Join_abort_quorum of { m_tid : Tid.t; m_from : Camelot_mach.Site.id }
  | Refused of { m_tid : Tid.t; m_from : Camelot_mach.Site.id; m_ok : bool }
  | Child_finish of { m_tid : Tid.t; m_outcome : outcome }
  | Paxos_accept of {
      m_tid : Tid.t;
      m_from : Camelot_mach.Site.id;
      m_instance : Camelot_mach.Site.id;
      m_ballot : int;
      m_vote : vote;
      m_leader : Camelot_mach.Site.id;
    }
  | Paxos_accepted of {
      m_tid : Tid.t;
      m_from : Camelot_mach.Site.id;
      m_instance : Camelot_mach.Site.id;
      m_ballot : int;
      m_vote : vote;
    }
  | Paxos_prepare of { m_tid : Tid.t; m_from : Camelot_mach.Site.id; m_ballot : int }
  | Paxos_promise of {
      m_tid : Tid.t;
      m_from : Camelot_mach.Site.id;
      m_ballot : int;
      m_accepted : (Camelot_mach.Site.id * int * vote) list;
    }

let tid = function
  | Prepare m -> m.m_tid
  | Vote m -> m.m_tid
  | Replicate m -> m.m_tid
  | Replicate_ack m -> m.m_tid
  | Outcome m -> m.m_tid
  | Outcome_ack m -> m.m_tid
  | Inquiry m -> m.m_tid
  | Status m -> m.m_tid
  | Join_abort_quorum m -> m.m_tid
  | Refused m -> m.m_tid
  | Child_finish m -> m.m_tid
  | Paxos_accept m -> m.m_tid
  | Paxos_accepted m -> m.m_tid
  | Paxos_prepare m -> m.m_tid
  | Paxos_promise m -> m.m_tid

let pp_vote ppf = function
  | Vote_yes { read_only = true } -> Format.pp_print_string ppf "yes-readonly"
  | Vote_yes { read_only = false } -> Format.pp_print_string ppf "yes"
  | Vote_no -> Format.pp_print_string ppf "no"

let pp ppf = function
  | Prepare m ->
      Format.fprintf ppf "Prepare(%a %a coord=%d q=%d)" Tid.pp m.m_tid
        pp_commit_protocol m.m_protocol m.m_coordinator m.m_commit_quorum
  | Vote m ->
      Format.fprintf ppf "Vote(%a from=%d %a)" Tid.pp m.m_tid m.m_from pp_vote
        m.m_vote
  | Replicate m -> Format.fprintf ppf "Replicate(%a coord=%d)" Tid.pp m.m_tid m.m_coordinator
  | Replicate_ack m -> Format.fprintf ppf "ReplicateAck(%a from=%d)" Tid.pp m.m_tid m.m_from
  | Outcome m ->
      Format.fprintf ppf "Outcome(%a from=%d %a %a)" Tid.pp m.m_tid m.m_from
        pp_outcome m.m_outcome pp_commit_protocol m.m_protocol
  | Outcome_ack m -> Format.fprintf ppf "OutcomeAck(%a from=%d)" Tid.pp m.m_tid m.m_from
  | Inquiry m -> Format.fprintf ppf "Inquiry(%a from=%d)" Tid.pp m.m_tid m.m_from
  | Status m ->
      Format.fprintf ppf "Status(%a from=%d %a)" Tid.pp m.m_tid m.m_from
        pp_status m.m_status
  | Join_abort_quorum m ->
      Format.fprintf ppf "JoinAbortQuorum(%a from=%d)" Tid.pp m.m_tid m.m_from
  | Refused m ->
      Format.fprintf ppf "Refused(%a from=%d ok=%b)" Tid.pp m.m_tid m.m_from m.m_ok
  | Child_finish m ->
      Format.fprintf ppf "ChildFinish(%a %a)" Tid.pp m.m_tid pp_outcome m.m_outcome
  | Paxos_accept m ->
      Format.fprintf ppf "PaxosAccept(%a from=%d inst=%d b=%d %a ldr=%d)" Tid.pp
        m.m_tid m.m_from m.m_instance m.m_ballot pp_vote m.m_vote m.m_leader
  | Paxos_accepted m ->
      Format.fprintf ppf "PaxosAccepted(%a from=%d inst=%d b=%d %a)" Tid.pp
        m.m_tid m.m_from m.m_instance m.m_ballot pp_vote m.m_vote
  | Paxos_prepare m ->
      Format.fprintf ppf "PaxosPrepare(%a from=%d b=%d)" Tid.pp m.m_tid m.m_from
        m.m_ballot
  | Paxos_promise m ->
      Format.fprintf ppf "PaxosPromise(%a from=%d b=%d n=%d)" Tid.pp m.m_tid
        m.m_from m.m_ballot
        (List.length m.m_accepted)
