(** A simulated server node, built from a {!Ditto_uarch.Platform} spec: the
    serving {!node} the DES replays requests on, plus the memory hierarchy,
    cores and page cache the measurement phase executes instruction streams
    on. *)

type node = {
  uid : int;  (** dense per-process id, for int-keyed machine tables *)
  engine : Ditto_sim.Engine.t;
  sched : Ditto_os.Sched.t;
  nic : Ditto_net.Nic.t;
  loopback : Ditto_net.Nic.t;
      (** intra-node connections use this effectively-unbounded device so
          colocated tiers do not consume real NIC bandwidth *)
  disk : Ditto_storage.Disk.t;
}
(** Everything the serving phase ({!Service}) reads of a machine. *)

type t = {
  node : node;
  platform : Ditto_uarch.Platform.t;
  mem : Ditto_uarch.Memory.t;
  cores : Ditto_uarch.Core_model.t array;
  page_cache : Ditto_os.Page_cache.t;
}

val node : ?cores:int -> Ditto_sim.Engine.t -> Ditto_uarch.Platform.t -> node
(** A serving node alone, with no microarchitectural state: what an
    autoscaler replica runs on. [cores] sizes the scheduler (default: the
    platform's core count). *)

val create :
  ?page_cache_bytes:int -> ?cores:int -> Ditto_sim.Engine.t -> Ditto_uarch.Platform.t -> t
(** [cores] overrides the platform core count (Fig. 11's core scaling);
    [page_cache_bytes] defaults to a quarter of platform RAM. *)

val ncores : t -> int

val release : t -> unit
(** Return the machine's (memory hierarchy, cores) pair to a domain-local
    free pool keyed on (platform, core count). A later {!create} with the
    same key recycles the pair after an exhaustive reset, skipping the
    dominant allocation cost; results stay bit-identical to a fresh build.
    The caller must not use [t] after releasing it. *)

val cycles_to_seconds : t -> float -> float
(** Convert pipeline cycles to wall-clock seconds at the platform's
    frequency. *)
