(** Time-sliced multi-core scheduler (CFS-like) for the DES phase.

    Threads claim a core for quantum-sized slices, paying a context-switch
    cost when a core changes thread; queueing delay under load and the
    latency knee near saturation emerge from this contention. Core counts
    and frequency come from the platform (Fig. 11 sweeps both). *)

type t

val create :
  Ditto_sim.Engine.t -> ncores:int -> ?quantum:float -> ?ctx_switch_cost:float -> unit -> t

val ncores : t -> int

val run_oncpu : t -> thread:int -> float -> unit
(** Consume the given CPU seconds, acquiring/releasing cores in slices;
    blocks the calling process until the work is done. *)

val context_switches : t -> int
val busy_seconds : t -> float
