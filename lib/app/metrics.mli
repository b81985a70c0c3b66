(** Per-run metric bundle: the quantities plotted in Figs. 5–11. *)

(** Resilience/fault counters observed during the DES phase (all zero for a
    fault-free run with default {!Spec.resilience}). *)
type faults = {
  timeouts : int;
  retries : int;
  shed : int;
  failures : int;
  breaker_transitions : int;
  link_drops : int;
}

val no_faults : faults

type t = {
  label : string;
  qps : float;  (** achieved request throughput *)
  ipc : float;
  branch_miss_rate : float;
  l1i_miss_rate : float;
  l1d_miss_rate : float;
  l2_miss_rate : float;
  llc_miss_rate : float;
  net_mbps : float;  (** NIC bytes moved per second of simulated time *)
  disk_mbps : float;
  lat_avg : float;  (** seconds *)
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  topdown : Ditto_uarch.Counters.topdown;
  counters : Ditto_uarch.Counters.t;
  faults : faults;
}

val error_pct : actual:t -> synthetic:t -> (string * float) list
(** Per-axis percentage error of the synthetic clone vs the original on
    the axes of the paper's radar plots: IPC, Branch, L1i, L1d, L2, LLC,
    Net BW (+ Disk BW where applicable). Axes with a zero actual value are
    skipped. *)

val latency_error_pct : actual:t -> synthetic:t -> (string * float) list
val pp_row : t -> string list
(** Cells: label qps ipc brMiss l1i l1d l2 llc net disk avg p95 p99. *)

val header : string list
