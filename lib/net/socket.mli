(** Bidirectional message sockets with epoll-style readiness.

    Messages carry only sizes (no payload — the clone never ships real
    data). A send serialises through the local NIC, crosses the link
    latency, then lands in the peer's receive queue and wakes any epoll
    waiter — giving the I/O-multiplexing server model of §4.3.1 its real
    blocking structure.

    For the chaos layer ({!Ditto_fault}), deliveries additionally carry an
    error flag (a load-shed or failed RPC answers with [err = true]) and can
    be vetoed or delayed per message by an installed {!set_disruptor}
    callback. *)

type endpoint

type msg = { bytes : int; err : bool; arrived : float; meta : int }
(** [arrived] is the delivery time — the instant the message entered the
    receive queue, for measuring server-side queueing. [meta] is an
    opaque application token carried verbatim with the message ([0] when
    the sender set none); {!Ditto_obs.Reqtrace} rides trace context on it
    without this layer depending on the observability stack. *)

type verdict = Deliver | Delay of float | Drop
(** Fate of one delivery, decided by a disruptor: deliver normally, deliver
    after an extra one-way delay (seconds), or silently drop. The sender's
    NIC still serialises dropped messages (the bytes left the host). *)

val pair :
  Ditto_sim.Engine.t ->
  a_nic:Nic.t ->
  b_nic:Nic.t ->
  latency:float ->
  endpoint * endpoint
(** A connected socket; [latency] is the one-way propagation delay. *)

val set_disruptor : endpoint -> (bytes:int -> verdict) option -> unit
(** Install (or clear) a per-send delivery verdict for this direction of the
    link. [None] (the default) delivers everything. *)

val send : ?err:bool -> ?meta:int -> endpoint -> bytes:int -> unit
(** Blocking send from within a process (NIC queueing + serialisation).
    [err] marks the message as an application-level error response;
    [meta] (default [0]) is an opaque token delivered with the message. *)

val recv : endpoint -> int
(** Blocking receive; returns the message size. *)

val recv_timed : endpoint -> int * float
(** Blocking receive returning (size, delivery time). *)

val recv_msg : endpoint -> msg
(** Blocking receive of the full message record. *)

val recv_msg_timeout : endpoint -> timeout:float -> msg option
(** Blocking receive with a deadline; [None] once [timeout] seconds pass
    without a delivery. *)

val try_recv : endpoint -> int option
val try_recv_msg : endpoint -> msg option
val pending : endpoint -> int

(** {1 Queue depth} *)

module Depth : sig
  type t
  (** A queued-message counter shared by a set of endpoints — a tier's
      accept queues across its primary and replicas. Deliveries into an
      attached endpoint's inbox raise it and every take (any [recv] or
      [try_recv] variant) lowers it, so {!get} equals the sum of
      {!pending} over the attached endpoints in O(1). *)

  val create : unit -> t

  val attach : t -> endpoint -> unit
  (** Count the endpoint's inbox on [t] from now on, including the
      messages already queued in it. An endpoint reports to one counter at
      a time: attaching it elsewhere moves its queued messages over. *)

  val get : t -> int
end

(** {1 I/O multiplexing} *)

module Epoll : sig
  type t

  val create : unit -> t
  val add : t -> endpoint -> unit

  val wait : ?timeout:float -> t -> endpoint list
  (** Block until at least one registered endpoint is readable; returns the
      ready endpoints ([] only on timeout). A non-positive [timeout] polls:
      it returns the currently ready endpoints — possibly [] — without
      blocking or yielding. *)
end
