(** Sampling distributions used by workload generators and profilers. *)

val exponential : Rng.t -> mean:float -> float
(** Exponential inter-arrival with the given mean. *)

val geometric : Rng.t -> mean:float -> int
(** Geometric batch size on support [{1, 2, ...}] with the given mean;
    one uniform draw per sample. [mean <= 1] always returns 1. *)

val normal : Rng.t -> mean:float -> std:float -> float
(** Gaussian sample (Box–Muller). *)

val pareto : Rng.t -> scale:float -> shape:float -> float
(** Pareto sample; heavy-tailed service demands. Requires [shape > 0]. *)

type zipf
(** Precomputed Zipf(n, s) sampler over ranks [0..n-1]. *)

val zipf : n:int -> s:float -> zipf
val zipf_sample : zipf -> Rng.t -> int

type 'a discrete
(** Weighted discrete distribution with O(log n) sampling. *)

val discrete : ('a * float) list -> 'a discrete
(** [discrete pairs] from (value, weight) pairs; weights need not sum to 1.
    Raises [Invalid_argument] if empty or all weights are <= 0. *)

val discrete_sample : 'a discrete -> Rng.t -> 'a
val discrete_support : 'a discrete -> ('a * float) array
(** Support with weights normalised to probabilities. *)

type empirical
(** Empirical distribution of floats built from observed samples. *)

val empirical : float array -> empirical
val empirical_sample : empirical -> Rng.t -> float
val empirical_mean : empirical -> float
