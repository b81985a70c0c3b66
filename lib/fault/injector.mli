(** Compiles a {!Plan} against a DES engine.

    [arm] schedules the plan's start/end callbacks as ordinary engine events,
    so fault state flips at deterministic points of the (single-threaded)
    event order. Random drop decisions come from the injector's own
    [Rng] stream — seeded from the run seed — and are drawn in engine event
    order, so a given (seed, plan) pair degrades a run bit-identically
    regardless of the host domain-pool size. *)

type t

val create : engine:Ditto_sim.Engine.t -> seed:int -> Plan.t -> t

val arm : t -> at:float -> unit
(** Schedule every plan event relative to absolute engine time [at] (the
    start of the load phase). *)

type tier
(** One tier's live fault state. Resolve it once with {!tier} and query it
    per request without hashing the tier name again. *)

val tier : t -> string -> tier

val tier_up : tier -> bool
(** False while a [Crash] window covers the tier. *)

val slow_factor : tier -> float
(** Product of active [Slowdown] factors for the tier (1.0 when healthy). *)

val disruptor : t -> src:string -> dst:string -> bytes:int -> Ditto_net.Socket.verdict
(** Delivery verdict for one message on the [src] -> [dst] link: [Drop] if
    either side is partitioned, else a seeded coin-flip against the combined
    drop probability, else [Delay] by the summed added latencies. Partial
    application ([disruptor t ~src ~dst]) resolves both tiers' state once
    and is the closure handed to [Socket.set_disruptor]. *)

val drops : t -> string -> int
(** Messages dropped so far on links whose source is the given tier. *)
