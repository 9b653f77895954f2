(** Figure 5 — "Read Transaction Throughput" (application/server pairs
    vs TPS) on the VAX cost model, thread counts 1/5/20. Reads never
    force the log, so the transaction manager and the message system
    take all the load: a single TranMan thread saturates beyond two
    clients; more threads buy a little more before the (single
    effective) processor caps everything. *)

val run : ?horizon_ms:float -> unit -> unit
