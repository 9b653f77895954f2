(** Workload drivers shared by the latency (Figures 2–3, Table 3,
    multicast) and throughput (Figures 4–5) experiments. *)

open Camelot_core

(** The four §4.2 protocol/operation variants of the basic latency
    experiment. *)
type variant =
  | Optimized_write
  | Semi_optimized_write
  | Unoptimized_write
  | Read_only

type latency_result = {
  total : Camelot_sim.Stats.summary;
      (** begin-to-commit-return, milliseconds *)
  tranman : Camelot_sim.Stats.summary;
      (** total minus the operation costs (3.5 + 29N), the paper's
          derivation of transaction-management cost *)
  total_samples : Camelot_sim.Stats.t;
      (** the raw latency samples, for distribution plots *)
}

(** Leading repetitions {!minimal_transactions} runs but does not
    measure (3). *)
val warmup : int

(** [minimal_transactions ~protocol ~variant ~subordinates ~reps ()]
    runs the §4.2 basic experiment: [reps] back-to-back minimal
    transactions (one small operation at one server at each site,
    always the same data element — so lock contention between
    consecutive transactions arises exactly as in the paper) from an
    application at site 0, against [subordinates]+1 sites on the RT
    cost model. The first {!warmup} repetitions are dropped, so [reps]
    must exceed it for any sample to be measured. The seed is fixed
    (42).
    @param multicast coordinator fan-out by multicast (default false) *)
val minimal_transactions :
  ?multicast:bool ->
  protocol:Protocol.commit_protocol ->
  variant:variant ->
  subordinates:int ->
  reps:int ->
  unit ->
  latency_result

type throughput_result = {
  pairs : int;
  threads : int;
  group_commit : bool;
  tps : float;
  committed : int;
}

(** [throughput ~update_fraction ~pairs ~threads ~group_commit
    ~horizon_ms ()] runs the §4.4 experiment on the VAX cost model:
    [pairs] separate application/server pairs on one 4-way SMP site,
    each looping minimal transactions against its own server (operation
    processing is never the bottleneck), with a [threads]-thread
    transaction manager. Each transaction updates with probability
    [update_fraction] and reads otherwise: Figure 4 passes 1.0, Figure 5
    0.0, and the mixed-workload ablation the points between. Each
    application sleeps an exponential think time (mean 15 ms) between
    transactions, breaking the batch-write convoy that lockstep clients
    would otherwise form. The seed is fixed (42). Returns committed
    transactions per second of virtual time. *)
val throughput :
  update_fraction:float ->
  pairs:int ->
  threads:int ->
  group_commit:bool ->
  horizon_ms:float ->
  unit ->
  throughput_result
