(** Four-way commit-protocol shootout: two-phase, non-blocking, Paxos
    Commit (F = 0 and F = 1) and short-commit run the same closed-loop
    all-site-update workload; the table reports commit latency
    (mean/sd/p50/p99), abort rate and protocol messages per
    transaction. Paxos at F = 0 must track 2PC message-for-message;
    F = 1 shows the acceptor fan-out premium; short-commit trades the
    commit acknowledgements away. *)

type row = {
  sh_name : string;
  sh_committed : int;
  sh_aborted : int;
  sh_abort_rate : float;  (** aborted / decided *)
  sh_mean_ms : float;  (** begin-to-commit, committed transactions only *)
  sh_sd_ms : float;
  sh_p50_ms : float;
  sh_p99_ms : float;
  sh_msgs_per_txn : float;  (** LAN datagrams / decided transactions *)
}

(** Run the five contenders (2PC, non-blocking, Paxos F=0 and F=1,
    short-commit) on identical cluster shapes. Defaults: 3 sites, 2
    workers per site, 20 s virtual horizon. *)
val collect :
  ?sites:int -> ?workers_per_site:int -> ?horizon_ms:float -> unit -> row list

(** Run, print the shootout table and the F = 0 parity note. *)
val run :
  ?sites:int -> ?workers_per_site:int -> ?horizon_ms:float -> unit -> row list
