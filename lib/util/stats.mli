(** Online and batch statistics: means, variances, percentiles. *)

type summary = {
  count : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

type t
(** A sample accumulator that retains all observations (growable buffer),
    suitable for percentile computation on simulation-scale sample counts. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val variance : t -> float
val std : t -> float
val percentile : t -> float -> float
(** [percentile t q] with [q] in [\[0,100\]]; linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty accumulator. *)

val summary : t -> summary
val to_array : t -> float array
(** Copy of the observations in insertion order. *)

val percentile_of : float array -> float -> float
(** Batch percentile over an unsorted array (copies, does not mutate). *)

val mape : actual:float array -> predicted:float array -> float
(** Mean absolute percentage error, in percent; pairs with [actual = 0]
    are skipped. Arrays must have equal length. *)

val ks_distance : float array -> float array -> float
(** Two-sample Kolmogorov–Smirnov statistic: the supremum distance between
    the empirical CDFs, in [\[0, 1\]]. Used to compare whole latency
    distributions of original and clone rather than a few percentiles.
    Raises [Invalid_argument] if either sample is empty. *)
