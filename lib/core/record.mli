(** Log records written by the transaction manager and the data servers
    into the site's common write-ahead log.

    The protocol-visible write/force discipline is the heart of the
    paper's §3.2 optimization: which records are {e forced} (a
    synchronous disk write on the critical path) versus {e spooled}
    (written lazily by a later force or the background flusher)
    determines both latency and logging throughput. The discipline, per
    record:

    - [Update]: spooled when the operation executes ("as late as
      possible"); made durable by the first force that follows;
    - [Prepare]: forced at a subordinate before voting yes;
    - [Commit] at the coordinator: forced — this is the commit point;
    - [Commit] at a subordinate: forced in the unoptimized protocol,
      spooled in the optimized protocol of §3.2;
    - [Collecting]: forced by a presumed-commit coordinator before
      voting begins;
    - [Abort]: never forced under presumed abort; forced (and
      acknowledged) under presumed commit;
    - [Replication]: forced — the non-blocking protocol's quorum
      information (§3.3);
    - [Refusal]: forced — the site has joined an abort quorum and
      promises never to join a commit quorum for this transaction;
    - [End]: spooled when the coordinator has collected all commit
      acknowledgements and may forget the transaction. *)

type update = {
  u_tid : Tid.t;
  u_server : string;
  u_key : string;
  u_old : int;
  u_new : int;
}

(** Which quorum a site has joined for a non-blocking transaction
    (§3.3 change 4: never both): what a family's [Replication] or
    [Refusal] record says, carried by its checkpoint image and by the
    live family descriptor ([State.quorum_side] re-exports it). *)
type quorum_side = Q_none | Q_commit | Q_abort

(** Protocol state of one family still live at checkpoint time, so a
    recovery that starts its scan at the checkpoint — after the records
    below it were truncated away — reconstructs the same descriptor the
    dropped records would have rebuilt. *)
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
      (** paxos: the 2F+1 acceptor set ([] for other protocols) *)
  fi_pax_ballot : int;  (** paxos acceptor: highest promised ballot *)
  fi_pax_accepted : (Camelot_mach.Site.id * int * Protocol.vote) list;
      (** paxos acceptor: accepted (instance, ballot, vote) triples *)
}

type t =
  | Update of update
  | Checkpoint of {
      ck_values : (string * string * int) list;
      ck_active : update list;
      ck_families : family_image list;
    }
      (** a forced snapshot: committed [(server, key, value)] triples,
          the updates of transactions still in flight at snapshot time
          (so in-doubt transactions keep their undo information across
          the checkpoint), and protocol images of the families not yet
          forgotten — everything recovery needs when the log below the
          checkpoint has been truncated *)
  | Collecting of {
      g_tid : Tid.t;
      g_sites : Camelot_mach.Site.id list;
      g_protocol : Protocol.commit_protocol;
    }
      (** forced by the coordinator before any prepare message, under
          presumed commit (any protocol) and always under short-commit,
          so a recovering coordinator knows the transaction was in
          progress (and must be aborted and remembered) rather than
          committed-and-forgotten. [g_protocol] disambiguates which
          protocol's recovery rules apply. *)
  | Prepare of {
      p_tid : Tid.t;
      p_coordinator : Camelot_mach.Site.id;
      p_protocol : Protocol.commit_protocol;
      p_sites : Camelot_mach.Site.id list;  (** non-blocking: full site list *)
      p_acceptors : Camelot_mach.Site.id list;
          (** paxos: the 2F+1 acceptor set; empty for other protocols *)
    }
  | Commit of { c_tid : Tid.t; c_sites : Camelot_mach.Site.id list }
  | Abort of { a_tid : Tid.t }
  | Paxos_promised of { pp_tid : Tid.t; pp_ballot : int }
      (** paxos acceptor: forced before answering a phase-1a prepare,
          so the promise survives a crash *)
  | Paxos_accepted of {
      pa_tid : Tid.t;
      pa_instance : Camelot_mach.Site.id;
      pa_ballot : int;
      pa_vote : Protocol.vote;
    }
      (** paxos acceptor: forced before the phase-2b report when F >= 1
          (the acceptance is the replicated vote); spooled in the F = 0
          degenerate case, where the sole co-located acceptor adds no
          durability beyond the coordinator's own records — that is what
          collapses Paxos Commit to 2PC's force count *)
  | Replication of {
      r_tid : Tid.t;
      r_coordinator : Camelot_mach.Site.id;
      r_sites : Camelot_mach.Site.id list;
      r_update_sites : Camelot_mach.Site.id list;
    }
  | Refusal of { f_tid : Tid.t }
  | End of { e_tid : Tid.t }

(** The transaction a record belongs to.
    @raise Invalid_argument on [Checkpoint], which belongs to none. *)
val tid : t -> Tid.t

val pp : Format.formatter -> t -> unit
