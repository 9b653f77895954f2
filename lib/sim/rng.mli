(** Deterministic, splittable pseudo-random numbers (SplitMix64).

    Every stochastic element of the simulation draws from an [Rng.t]
    seeded explicitly, so whole experiments replay bit-for-bit from a
    seed. [split] derives an independent stream, letting each site or
    subsystem own its own generator without cross-coupling. *)

type t

val create : seed:int -> t

(** An independent generator derived from [t]'s current state. *)
val split : t -> t

(** Uniform in [\[0, 1)]. *)
val uniform : t -> float

(** Uniform integer in [\[0, bound)]. [bound] must be positive. *)
val int_below : t -> int -> int

(** [bool t ~p] is [true] with probability [p]. *)
val bool : t -> p:float -> bool

(** Exponentially distributed with the given mean. *)
val exponential : t -> mean:float -> float

(** Zipfian rank sampler for hot-key contention: rank 0 is the hottest
    key, with [P(rank = i)] proportional to [1/(i+1)^theta]. *)
module Zipf : sig
  type rng := t
  type t

  (** [create ~n ~theta] precomputes the CDF over ranks [0..n-1].
      [theta = 0] degenerates to uniform; the classic YCSB-style
      skew is [theta ~ 0.99]. *)
  val create : n:int -> theta:float -> t

  (** Number of ranks. *)
  val size : t -> int

  (** Draw a rank in [\[0, n)] — O(log n) binary search on the CDF. *)
  val draw : t -> rng -> int
end
