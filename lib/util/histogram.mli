(** Integer-keyed counting histograms and log2-quantized variants.

    Ditto quantizes branch taken/transition rates and dependency distances
    on a log2 scale (§4.4.3, §4.4.6); these helpers implement that binning. *)

type t
(** Counting histogram over integer keys. *)

val create : unit -> t
val add : ?count:int -> t -> int -> unit
val count : t -> int -> int
val total : t -> int
val bindings : t -> (int * int) list
(** Sorted by key ascending. *)

val merge : t -> t -> t
(** Pointwise sum of two histograms. *)

val log2_bin : int -> int
(** [log2_bin v] is [floor (log2 (max 1 v))]: bin index for a positive
    quantity quantized in powers of two. *)

val log2_bin_rate : float -> int
(** [log2_bin_rate r] quantizes a rate in (0, 1] to bin [b] such that the
    rate is approximately [2^-b]; clamped to bins 0..10 per the paper's
    2^-1 .. 2^-10 scale (bin 0 means rate ~1). *)

val rate_of_log2_bin : int -> float
(** Inverse of [log2_bin_rate]: bin [b] -> [2^-b]. *)
