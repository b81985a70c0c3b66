(** Workload generators, mirroring the clients of §6.1.2.

    Each generator fixes the queueing discipline (open vs closed loop) and a
    default connection count; [to_load] instantiates it at a target QPS.
    The paper stresses that the same generator drives original and synthetic
    services — the harness does exactly that. *)

type t = {
  gen_name : string;
  open_loop : bool;
  connections : int;
}

val mutated : t
(** Open-loop key-value client (drives Memcached). *)

val tcpkali : t
(** Open-loop HTTP load generator (drives NGINX). *)

val ycsb : t
(** Closed-loop record client, one outstanding request per connection
    (drives MongoDB and Redis) — which is why their latency stays flat at
    saturation in Fig. 5. *)

val wrk2_open : t
(** wrk2 modified to open-loop, as the paper does for Social Network. *)

val to_load :
  t -> qps:float -> ?duration:float -> ?profile:Ditto_app.Rate.t -> unit -> Ditto_app.Service.load
(** [profile] shapes the offered rate over the run ({!Profile} has the
    canonical ones); omitted, the load is the flat-rate process it always
    was. *)

(** {1 Key/record access helpers for application handlers} *)

module Keys : sig
  type space
  (** A keyed dataset: [records] records of [record_bytes] each, accessed
      uniformly or with Zipfian popularity. *)

  val uniform : records:int -> record_bytes:int -> space
  val zipf : ?s:float -> records:int -> record_bytes:int -> unit -> space

  val sample_offset : space -> Ditto_util.Rng.t -> int
  (** Byte offset of a sampled record within the dataset. *)

  val record_bytes : space -> int
end
