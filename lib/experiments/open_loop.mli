(** Open-loop traffic rig: fixed-rate arrival processes driving
    queue-sharded execution across dozens of sites, reporting latency
    tails (p50/p99/p999), abort rate, and the saturation knee.

    Where {!Closed_loop} is closed-loop (offered load self-throttles at
    saturation, hiding the tails), this rig schedules one engine timer
    per arrival — the offered rate never yields, so past the knee the
    dispatch queues grow, p99 blows up, and the backlog column shows
    the system falling behind. *)

(** Arrival process, by offered rate in transactions/second. [Bursty]
    has the same mean rate but releases [burst] arrivals at once at
    Poisson epochs. [Piecewise] is a piecewise-constant-rate Poisson
    process (the diurnal/trace-driven source): each
    [(start_ms, rate_tps)] segment holds its rate until the next
    segment starts, the last one until the horizon. *)
type arrival =
  | Poisson of { rate_tps : float }
  | Bursty of { rate_tps : float; burst : int }
  | Piecewise of { segments : (float * float) list }

(** The rate a capacity planner would quote: the nominal rate for
    [Poisson]/[Bursty], the peak segment rate for [Piecewise]. *)
val offered_rate : arrival -> float

(** One sinusoidal "day" mapped onto the horizon — overnight trough
    (15% of [peak_tps]) at both ends, peak in the middle — sampled
    into [steps] (default 24) constant-rate segments. *)
val day_curve :
  ?steps:int -> peak_tps:float -> horizon_ms:float -> unit -> arrival

(** Parse a rate trace — one "t_ms rate_tps" pair per line, ['#']
    comments and blank lines ignored, times ascending — into a
    [Piecewise] arrival.
    @raise Failure on a malformed line; I/O exceptions pass through. *)
val trace_of_file : string -> arrival

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

(** Arrival instants in [\[0, horizon_ms)], ascending — a pure function
    of the rng stream (exposed for generator tests).
    @raise Invalid_argument on a non-positive rate or burst. *)
val arrival_times :
  arrival -> rng:Camelot_sim.Rng.t -> horizon_ms:float -> float list

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

(** One sweep point. Defaults: 24 sites, 4 shards x 4 executors per
    site, 64 accounts at Zipf theta 0.99, 50 ms lock timeout,
    debit/credit mix, adaptive logger daemon.
    @param batch batched executor dequeue (see
    {!Camelot_mach.Dispatch.create}): each executor wakeup charges one
    context switch and drains up to [batch] jobs. Default: no switch
    charge, and an executor drains its whole queue per wakeup. *)
val run_one :
  ?seed:int ->
  ?sites:int ->
  ?mix:mix ->
  ?keys:int ->
  ?theta:float ->
  ?shards_per_site:int ->
  ?executors_per_shard:int ->
  ?lock_timeout_ms:float ->
  ?batch:int ->
  arrival:arrival ->
  horizon_ms:float ->
  unit ->
  point

(** Offered loads of the standard sweep (tps). *)
val load_range : float list

(** Poisson sweep over [loads] (default {!load_range}) at a 5 s virtual
    horizon. *)
val sweep :
  ?seed:int ->
  ?sites:int ->
  ?mix:mix ->
  ?keys:int ->
  ?theta:float ->
  ?shards_per_site:int ->
  ?executors_per_shard:int ->
  ?lock_timeout_ms:float ->
  ?batch:int ->
  ?loads:float list ->
  ?horizon_ms:float ->
  unit ->
  point list

(** First point leaving more than 10% of its arrivals unfinished at the
    horizon — the saturation knee, if the sweep reaches it. (Below the
    knee the backlog is only the end-of-horizon effect, a few percent;
    past it the queues grow for the whole run.) *)
val knee : point list -> point option

(** Run the sweep and print the offered-load table plus the knee. *)
val run :
  ?sites:int ->
  ?mix:mix ->
  ?batch:int ->
  ?loads:float list ->
  ?horizon_ms:float ->
  unit ->
  point list

(** Run one [Piecewise] arrival (diurnal curve or replayed trace) and
    print the curve shape plus the sweep row.
    @raise Invalid_argument if [arrival] is not [Piecewise]. *)
val run_piecewise :
  ?sites:int ->
  ?mix:mix ->
  ?batch:int ->
  arrival:arrival ->
  horizon_ms:float ->
  unit ->
  point
