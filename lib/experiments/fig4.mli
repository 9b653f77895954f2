(** Figure 4 — "Update Transaction Throughput" (application/server
    pairs vs TPS) on the VAX cost model: transaction-manager thread
    counts 1/5/20 without log batching, plus 20 threads with group
    commit. The paper's findings this must reproduce: the 1-thread
    curve is flat (the single thread serializes); 20 threads performs
    like 5 (the logger, not the TranMan, is the bottleneck); group
    commit lifts the ceiling. *)

val run : ?horizon_ms:float -> unit -> unit
