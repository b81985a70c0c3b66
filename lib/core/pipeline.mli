(** The end-to-end Ditto pipeline (Fig. 3): profile an original service,
    extract the microservice topology, generate a synthetic clone, and
    fine-tune it — then validate original vs clone under arbitrary loads,
    platforms and interference, without reprofiling. *)

type clone_result = {
  original : Ditto_app.Spec.t;
  reference : Ditto_app.Runner.output;  (** original's run at the profiling load *)
  dag : Ditto_trace.Dag.t option;
  profile : Ditto_profile.Tier_profile.app;
  synthetic : Ditto_app.Spec.t;
  tuning : Ditto_tune.Tuner.report option;
}

val clone :
  ?pool:Ditto_util.Pool.t ->
  ?tune:bool ->
  ?requests:int ->
  ?profile_requests:int ->
  ?seed:int ->
  platform:Ditto_uarch.Platform.t ->
  load:Ditto_app.Service.load ->
  Ditto_app.Spec.t ->
  clone_result
(** Profile at [load] (the paper profiles only at medium load) on
    [platform] and produce the clone. [tune] (default true) runs the §4.5
    calibration loop. [pool] (default {!Ditto_util.Pool.default}) carries
    the speculative tuning candidates; results are bit-identical for any
    pool size with the same seed. *)

type comparison = {
  label : string;
  actual : (string * Ditto_app.Metrics.t) list;
  synthetic : (string * Ditto_app.Metrics.t) list;
  actual_end_to_end : Ditto_util.Stats.summary;
  synthetic_end_to_end : Ditto_util.Stats.summary;
  actual_raw : float array;  (** raw end-to-end latency samples *)
  synthetic_raw : float array;
  actual_measured : (string * Ditto_app.Measure.tier_result) list;
      (** per-tier measurement-phase results (request counts, raw counters)
          backing the scorecard's insts/req and MPKI rows *)
  synthetic_measured : (string * Ditto_app.Measure.tier_result) list;
  actual_service : Ditto_app.Service.result;
      (** full service-phase results of both sides; carries the optional
          {!Ditto_obs.Timeseries} / {!Ditto_obs.Reqtrace} collectors when
          those layers were enabled for the validation runs *)
  synthetic_service : Ditto_app.Service.result;
}

val comparison_errors : comparison -> (string * (string * float) list) list
(** Per tier: the radar-axis error percentages. *)

(** {1 Scenarios} *)

type chaos = {
  scenario : Scenario.t;
      (** the scenario run; its [profile] is the one the load carried
          when the scenario named none *)
  comparison : comparison;  (** per-tier metrics and service results, both sides *)
}

val error_rate : Ditto_app.Service.result -> float
(** Failed fraction of client requests: errors / (completed + errors). *)

val run :
  ?pool:Ditto_util.Pool.t ->
  ?config_of:(Ditto_uarch.Platform.t -> Ditto_app.Runner.config) ->
  platform:Ditto_uarch.Platform.t ->
  load:Ditto_app.Service.load ->
  label:string ->
  Scenario.t ->
  clone_result ->
  chaos
(** Run original and synthetic under one scenario, in identical fresh
    environments: the scenario's fault plan armed, its rate profile
    replacing the load's, and its armour (if any) overlaid on both
    sides. The pair rides two pool domains when the pool has capacity;
    each run builds its own engine, so the outputs match the sequential
    schedule exactly. [config_of] customises the runner config
    (interference, core counts, ...). Deterministic for a given seed and
    scenario, for any pool size. *)

val validate :
  ?pool:Ditto_util.Pool.t ->
  ?config_of:(Ditto_uarch.Platform.t -> Ditto_app.Runner.config) ->
  platform:Ditto_uarch.Platform.t ->
  load:Ditto_app.Service.load ->
  label:string ->
  clone_result ->
  comparison
(** {!run} under {!Scenario.steady}. *)

val validate_under :
  ?pool:Ditto_util.Pool.t ->
  ?resilience:Ditto_app.Spec.resilience ->
  ?client_timeout:float ->
  ?client_retries:int ->
  ?autoscale:Ditto_app.Spec.autoscale ->
  ?config_of:(Ditto_uarch.Platform.t -> Ditto_app.Runner.config) ->
  platform:Ditto_uarch.Platform.t ->
  load:Ditto_app.Service.load ->
  ?plan:Ditto_fault.Plan.t ->
  ?profile:Ditto_app.Rate.t ->
  label:string ->
  clone_result ->
  chaos
(** {!run} under adversity: [plan], [profile], or both composed, with the
    armour {!Scenario.armour} builds from the optional arguments. *)
