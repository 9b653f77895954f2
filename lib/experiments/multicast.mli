(** §4.2/§6 — multicast and the variance of distributed commitment.

    Runs the 3-subordinate optimized-write experiment with the
    coordinator fanning out by serialized unicast datagrams versus one
    multicast, and compares means and standard deviations. The paper's
    finding: "multicast communication for coordinator to subordinates
    does not reduce commit latency, but does reduce variance" —
    "suggesting that much of the variance is created by the
    coordinator's repeated sends and not by its repeated receives". *)

val run : ?reps:int -> unit -> unit
