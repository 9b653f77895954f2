(** Sample accumulators: mean, standard deviation, percentiles.

    Used to report the measured latencies and standard deviations shown
    in the paper's Figures 2 and 3, and the throughput numbers of
    Figures 4 and 5. *)

type t

val create : unit -> t

(** Record one sample. *)
val add : t -> float -> unit

val count : t -> int

(** Arithmetic mean. 0 if empty. *)
val mean : t -> float

(** Unbiased sample variance (n-1 denominator). 0 if fewer than 2 samples. *)
val variance : t -> float

val stddev : t -> float
val min : t -> float
val max : t -> float
val total : t -> float

(** [percentile t p] for [p] in [\[0,100\]], by linear interpolation on
    the sorted samples.
    @raise Invalid_argument if empty or [p] out of range. *)
val percentile : t -> float -> float

val median : t -> float

(** All samples in insertion order. *)
val samples : t -> float array

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : t -> summary

(** [histogram t ~buckets] divides [\[min, max\]] into [buckets] equal
    bins and counts samples per bin (the last bin includes the
    maximum).
    @raise Invalid_argument if empty or [buckets <= 0]. *)
val histogram : t -> buckets:int -> (float * float * int) list

(** Render the histogram as one text bar per bin. *)
val pp_histogram : ?buckets:int -> Format.formatter -> t -> unit

(** Log-bucketed (HDR-style) latency histogram for tail quantiles.

    Unlike {!t}, which stores every sample (O(n) memory, exact
    percentiles), [Tail] keeps only geometric bucket counts: constant
    memory under millions of samples with a bounded ~4% relative error
    per quantile — the right trade for open-loop latency recording,
    where a single sweep point can complete 10^5–10^6 transactions. *)
module Tail : sig
  type t

  (** [create ()] is an empty histogram.
      @param lowest smallest distinguishable value (default 0.01 —
      10 µs when recording milliseconds); values at or below it share
      bucket 0.
      @param growth per-bucket geometric growth factor (default 1.04,
      i.e. ~4% relative resolution). Must exceed 1. *)
  val create : ?lowest:float -> ?growth:float -> unit -> t

  (** Record one (non-negative) sample. *)
  val add : t -> float -> unit

  val count : t -> int

  (** Exact arithmetic mean (tracked outside the buckets). 0 if empty. *)
  val mean : t -> float

  (** Exact maximum sample. 0 if empty. *)
  val max : t -> float

  (** [quantile t q] for [q] in [\[0,1\]]: the geometric midpoint of
      the bucket holding the [ceil (q*n)]-th smallest sample, clamped
      to the exact maximum.
      @raise Invalid_argument if empty or [q] out of range. *)
  val quantile : t -> float -> float

  val p50 : t -> float
  val p99 : t -> float
  val p999 : t -> float
end
