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
