(** Per-core performance counters — the simulated equivalent of the PMU
    metrics Ditto reads with Perf/VTune, plus top-down pipeline-slot
    accounting (Yasin's methodology, Fig. 2 of the paper). *)

type slots = {
  mutable cycles : float;
  mutable retiring : float;
  mutable frontend : float;
  mutable bad_spec : float;
  mutable backend : float;
}
(** The float counters, kept in an all-float record so OCaml stores them
    flat: updating one from the simulation hot loop is a raw double store
    (no box allocation, no write barrier). Mixed into the int record below
    each update would allocate. *)

type t = {
  mutable insts : int;
  mutable uops : int;
  mutable branches : int;
  mutable mispredicts : int;
  mutable btb_misses : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable l1i_accesses : int;
  mutable l1i_misses : int;
  mutable l1d_accesses : int;
  mutable l1d_misses : int;
  mutable l2_accesses : int;
  mutable l2_misses : int;
  mutable llc_accesses : int;
  mutable llc_misses : int;
  mutable coherence_misses : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  s : slots;  (** cycle count and top-down slot accumulators *)
}

val create : unit -> t
val reset : t -> unit

val copy : t -> t
(** Deep copy: the nested [slots] record is duplicated, never aliased. *)

val sub : t -> t -> t
(** [sub later earlier] is the counter delta between two snapshots. *)

val acc : t -> t -> unit
(** [acc into delta] accumulates [delta] into [into]. *)

val cycles : t -> float
(** [cycles t] is [t.s.cycles]. *)

(** Derived metrics, as reported in the paper's figures. *)

val ipc : t -> float
val cpi : t -> float
val branch_mpki : t -> float
val branch_miss_rate : t -> float
val l1i_miss_rate : t -> float
val l1d_miss_rate : t -> float
val l2_miss_rate : t -> float
val llc_miss_rate : t -> float

type topdown = { retiring : float; frontend : float; bad_speculation : float; backend : float }

val topdown : t -> topdown
(** Normalised slot fractions (sums to 1 when any slots were recorded). *)

val topdown_cpi : t -> topdown
(** Breakdown scaled to CPI contributions, as in Fig. 8's stacked bars. *)
