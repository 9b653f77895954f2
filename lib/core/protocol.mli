(** Wire messages exchanged between transaction managers.

    TranMans communicate with datagrams (paper footnote 1), so every
    message is one-way; request/response pairing, timeout/retry and
    duplicate suppression are the protocols' responsibility. *)

type outcome = Committed | Aborted

val pp_outcome : Format.formatter -> outcome -> unit

(** Which commit protocol a prepare belongs to. [Paxos_commit] is Gray
    & Lamport's Consensus on Transaction Commit: each participant's
    vote is a ballot-0 Paxos instance decided by 2F+1 acceptors, so a
    recovery coordinator can finish the commit after the leader dies.
    [Short_commit] is the one-round early-release variant: locks drop
    at prepare time, the commit decision travels unacknowledged. *)
type commit_protocol = Two_phase | Nonblocking | Paxos_commit | Short_commit

val pp_commit_protocol : Format.formatter -> commit_protocol -> unit

(** A subordinate's vote. [Vote_yes] with [read_only = true] means the
    site wrote nothing for this transaction: it drops its locks
    immediately and is excluded from all later phases. *)
type vote = Vote_yes of { read_only : bool } | Vote_no

(** What a site knows about a transaction, for takeover and recovery
    inquiries. Per presumed abort, [St_unknown] means abort. *)
type status =
  | St_unknown
  | St_active
  | St_prepared  (** voted yes, waiting for outcome *)
  | St_replicated  (** non-blocking: holds a replication record *)
  | St_refused  (** non-blocking: joined an abort quorum *)
  | St_committed
  | St_aborted

val pp_status : Format.formatter -> status -> unit

type t =
  | Prepare of {
      m_tid : Tid.t;
      m_coordinator : Camelot_mach.Site.id;
      m_protocol : commit_protocol;
      m_sites : Camelot_mach.Site.id list;  (** non-blocking: all participants *)
      m_commit_quorum : int;  (** non-blocking: replication-quorum size *)
      m_acceptors : Camelot_mach.Site.id list;
          (** paxos: the 2F+1 acceptor set; empty for other protocols *)
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
          (** which protocol decided — a receiver with no live family
              needs it to pick the right acknowledgement discipline *)
    }
  | Outcome_ack of { m_tid : Tid.t; m_from : Camelot_mach.Site.id }
  | Inquiry of { m_tid : Tid.t; m_from : Camelot_mach.Site.id }
  | Status of { m_tid : Tid.t; m_from : Camelot_mach.Site.id; m_status : status }
  | Join_abort_quorum of { m_tid : Tid.t; m_from : Camelot_mach.Site.id }
      (** takeover coordinator asks the site to refuse commitment *)
  | Refused of { m_tid : Tid.t; m_from : Camelot_mach.Site.id; m_ok : bool }
  | Child_finish of { m_tid : Tid.t; m_outcome : outcome }
      (** nested subtransaction resolution, pushed to every site the
          child touched *)
  | Paxos_accept of {
      m_tid : Tid.t;
      m_from : Camelot_mach.Site.id;
      m_instance : Camelot_mach.Site.id;
      m_ballot : int;
      m_vote : vote;
      m_leader : Camelot_mach.Site.id;
    }
      (** phase 2a of instance [m_instance]: a participant casts its
          vote at ballot 0, or a recovery coordinator proposes at a
          higher ballot. Acceptors report to [m_leader]. *)
  | Paxos_accepted of {
      m_tid : Tid.t;
      m_from : Camelot_mach.Site.id;
      m_instance : Camelot_mach.Site.id;
      m_ballot : int;
      m_vote : vote;
    }  (** phase 2b: an acceptor's durable acceptance, sent to the leader *)
  | Paxos_prepare of { m_tid : Tid.t; m_from : Camelot_mach.Site.id; m_ballot : int }
      (** phase 1a from a recovery coordinator, covering all instances *)
  | Paxos_promise of {
      m_tid : Tid.t;
      m_from : Camelot_mach.Site.id;
      m_ballot : int;
      m_accepted : (Camelot_mach.Site.id * int * vote) list;
    }
      (** phase 1b: promise plus every (instance, ballot, vote) this
          acceptor has accepted *)

(** The transaction the message is about. *)
val tid : t -> Tid.t

val pp_vote : Format.formatter -> vote -> unit
val pp : Format.formatter -> t -> unit
