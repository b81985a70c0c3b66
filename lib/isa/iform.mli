(** Instruction forms (iforms): concrete instructions with static operand
    signatures, in the spirit of Intel XED iforms which Ditto counts with
    Intel SDE (§4.4.2). Each iform carries the microarchitectural facts the
    core model needs — uop count, execution latency, legal execution ports,
    memory width — loosely following the Skylake numbers from uops.info /
    Agner Fog that the paper cites. *)

type t = {
  id : int;  (** dense index into [catalog] *)
  name : string;  (** e.g. ["ADD_GPR64_GPR64"] *)
  klass : Iclass.t;
  uops : int;
  latency : int;  (** execution latency in cycles, excluding memory *)
  ports : int;  (** bitmask over execution ports 0..7 *)
  bytes : int;  (** encoded length, drives i-footprint *)
  mem_width : int;  (** bytes read/written per access; 0 if no memory op *)
  operands : Iclass.operand_kind array;
}

val catalog : t array
(** All iforms, indexed by [id]. *)

val count : int
val by_name : string -> t
(** Raises [Not_found] for unknown names. *)

val of_id : int -> t

(** {1 Port masks} (exposed for the core model and tests) *)

val port_p0 : int
val port_p1 : int
val port_p5 : int
val port_p6 : int
val port_p06 : int
val port_p01 : int
val port_p015 : int
val port_p0156 : int
val port_load : int
(** AGU/load ports 2,3. *)

val port_store : int
(** Store-data port 4. *)

val port_count : int
(** Number of distinct ports modelled (8). *)

(** {1 Feature vectors for clustering (§4.4.2)} *)

val features : t -> float array
(** Numeric feature vector combining functionality category, operand kinds
    and ALU/port usage, used by hierarchical clustering so that each cluster
    has similar hardware resource requirements. *)

val feature_distance : t -> t -> float
(** Euclidean distance between feature vectors. *)

(** {1 Convenient groups} *)

val loads : t list
val stores : t list
val branches : t list
