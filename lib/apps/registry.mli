(** The application roster of §6.1.2, with each service's load generator
    and the QPS points used for the low/medium/high sweeps. *)

type entry = {
  name : string;
  spec : unit -> Ditto_app.Spec.t;
  workload : Ditto_loadgen.Workload.t;
  loads : float * float * float;  (** low / medium / high QPS *)
  focus_tiers : string list;
      (** the tiers whose metrics Fig. 5 reports (the service itself for
          monoliths; TextService and SocialGraphService for Social
          Network) *)
}

val all : entry list
(** The paper's evaluation set (§6.1.2). *)

val extras : entry list
(** Additional topologies beyond the paper's set (pipeline-generality
    checks): DeathStarBench's Hotel Reservation and Media Service, plus
    the synthesized production-scale graphs [synth-100/500/1000]
    (DESIGN.md §11). *)

val synth_sizes : int list
(** Tier counts of the registered synthetic graphs. *)

val by_name : string -> entry
(** Searches [all] then [extras]. *)

