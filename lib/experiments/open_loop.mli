(** Open-loop traffic rig: Poisson arrivals at a fixed offered rate
    driving queue-sharded execution across dozens of sites, reporting
    latency tails (p50/p99/p999), abort rate, and the saturation knee.

    Where {!Closed_loop} is closed-loop (offered load self-throttles at
    saturation, hiding the tails), this rig schedules one engine timer
    per arrival — the offered rate never yields, so past the knee the
    dispatch queues grow, p99 blows up, and the backlog column shows
    the system falling behind. *)

(** [Debit_credit]: two-key transfers (90% single-site, 10% crossing to
    the next site over presumed-abort 2PC), keys drawn independently
    from the Zipf — hot-key cycles deadlock and resolve by lock-timeout
    abort. [Read_mostly]: 90% single-key lookups, 10% increments. *)
type mix = Debit_credit | Read_mostly

(** One sampled transaction, as Zipf key ranks (rank 0 = hottest). *)
type txn =
  | Transfer of { debit : int; credit : int; remote : bool }
  | Lookup of int
  | Deposit of int

(** Draw one transaction from the mix (exposed for generator tests). *)
val sample_txn : mix -> Camelot_sim.Rng.Zipf.t -> Camelot_sim.Rng.t -> txn

(** Poisson arrival instants at [rate_tps] transactions/second in
    [\[0, horizon_ms)], ascending — a pure function of the rng stream
    (exposed for generator tests).
    @raise Invalid_argument on a non-positive rate. *)
val arrival_times :
  rate_tps:float -> rng:Camelot_sim.Rng.t -> horizon_ms:float -> float list

type point = {
  offered_tps : float;
  arrivals : int;  (** timers scheduled *)
  committed : int;
  aborted : int;  (** lock-timeout and vetoed commits *)
  backlog : int;  (** admitted but unfinished at the horizon *)
  completed_tps : float;  (** committed per second of virtual time *)
  abort_rate : float;  (** aborted / (committed + aborted) *)
  mean_ms : float;  (** arrival-to-commit, queueing included *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_shard_depth : int;  (** deepest any dispatch shard queue got *)
}

(** One sweep point: Poisson arrivals at [rate_tps] for [horizon_ms]
    of virtual time. Defaults: seed 17, 24 sites, debit/credit mix, 64
    accounts. Fixed: Zipf theta 0.99, 4 shards x 4 executors per site,
    50 ms lock timeout, adaptive logger daemon. *)
val run_one :
  ?seed:int ->
  ?sites:int ->
  ?mix:mix ->
  ?keys:int ->
  rate_tps:float ->
  horizon_ms:float ->
  unit ->
  point

(** One {!run_one} per load in [loads] (default the standard sweep,
    100, 200, 400, 800 and 1600 tps) at a 5 s virtual horizon
    (default), printing nothing. *)
val collect :
  ?sites:int ->
  ?mix:mix ->
  ?loads:float list ->
  ?horizon_ms:float ->
  unit ->
  point list

(** First point leaving more than 10% of its arrivals unfinished at the
    horizon — the saturation knee, if the sweep reaches it. (Below the
    knee the backlog is only the end-of-horizon effect, a few percent;
    past it the queues grow for the whole run.) *)
val knee : point list -> point option

(** {!collect}, then print the offered-load table plus the knee. *)
val run :
  ?sites:int ->
  ?mix:mix ->
  ?loads:float list ->
  ?horizon_ms:float ->
  unit ->
  point list
