(** Network interface with finite transmit bandwidth.

    Transmissions serialise on the link: under saturation (or an iperf-style
    competitor, Fig. 10's "Net" interference) messages queue and latency
    grows. Receive-side bandwidth is accounted but not modelled as a
    separate queue (full duplex). *)

type t

val create : Ditto_sim.Engine.t -> gbps:float -> t

val transmit : t -> bytes:int -> unit
(** Block the calling process for queueing plus serialisation delay. *)

val note_received : t -> bytes:int -> unit
val bytes_sent : t -> int
val bytes_received : t -> int
val gbps : t -> float
