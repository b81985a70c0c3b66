open Ditto_app
module P = Ditto_profile

type clone_result = {
  original : Spec.t;
  reference : Runner.output;
  dag : Ditto_trace.Dag.t option;
  profile : P.Tier_profile.app;
  synthetic : Spec.t;
  tuning : Ditto_tune.Tuner.report option;
}

module Obs = Ditto_obs.Obs

let clone ?pool ?(tune = true) ?(requests = 220) ?(profile_requests = 160) ?(seed = 42)
    ~platform ~load (original : Spec.t) =
  Obs.Span.with_span ~name:"pipeline.clone"
    ~attrs:[ ("app", Obs.Str original.Spec.app_name); ("seed", Obs.Int seed) ]
    (fun () ->
      let pool = match pool with Some p -> p | None -> Ditto_util.Pool.default () in
      let config = Runner.config ~requests ~seed platform in
      (* Step 1: run the original at the profiling load; this run provides the
         counter reference for tuning and the measured traces the distributed
         tracer samples. *)
      let reference =
        Obs.Span.with_span ~name:"clone.reference" (fun () -> Runner.run config ~load original)
      in
      (* Step 2: microservice topology from sampled end-to-end traces. *)
      let dag =
        if Spec.is_microservice original then begin
          let measured_tbl = Hashtbl.create 64 in
          List.iter
            (fun (name, r) -> Hashtbl.replace measured_tbl name r)
            reference.Runner.measured;
          let results name = Hashtbl.find measured_tbl name in
          Obs.Span.with_span ~name:"clone.dag" (fun () ->
              let spans =
                Ditto_trace.Collector.collect ~entry:original.Spec.entry ~results ~samples:256
                  ~seed:(seed + 3)
              in
              Some (Ditto_trace.Dag.of_spans spans))
        end
        else None
      in
      (* Step 3: profile skeleton and body of every tier. *)
      let profile =
        Obs.Span.with_span ~name:"clone.profile" (fun () ->
            P.Tier_profile.profile_app ~requests:profile_requests ~seed:(seed + 5) ?dag original)
      in
      (* Step 4: generate; Step 5: fine-tune. *)
      if tune then begin
        let synthetic, report =
          Ditto_tune.Tuner.tune ~seed:(seed + 11) ~pool ~config ~load ~reference ~profile ()
        in
        { original; reference; dag; profile; synthetic; tuning = Some report }
      end
      else begin
        let synthetic =
          Obs.Span.with_span ~name:"clone.generate" (fun () ->
              Ditto_gen.Clone.synth_app ~seed:(seed + 11) profile)
        in
        { original; reference; dag; profile; synthetic; tuning = None }
      end)

type comparison = {
  label : string;
  actual : (string * Metrics.t) list;
  synthetic : (string * Metrics.t) list;
  actual_end_to_end : Ditto_util.Stats.summary;
  synthetic_end_to_end : Ditto_util.Stats.summary;
  actual_raw : float array;
  synthetic_raw : float array;
  actual_measured : (string * Measure.tier_result) list;
  synthetic_measured : (string * Measure.tier_result) list;
  actual_service : Service.result;
  synthetic_service : Service.result;
}

type chaos = { scenario : Scenario.t; comparison : comparison }

let error_rate (r : Service.result) =
  let total = r.Service.completed + r.Service.errors in
  if total = 0 then 0.0 else float_of_int r.Service.errors /. float_of_int total

let run ?pool ?config_of ~platform ~load ~label (scenario : Scenario.t) result =
  let span, attrs =
    match scenario.Scenario.armour with
    | None -> ("pipeline.validate", [])
    | Some _ -> ("pipeline.validate_under", [ ("scenario", Obs.Str (Scenario.name scenario)) ])
  in
  Obs.Span.with_span ~name:span ~attrs:(("label", Obs.Str label) :: attrs) @@ fun () ->
  let pool = match pool with Some p -> p | None -> Ditto_util.Pool.default () in
  let config = match config_of with Some f -> f platform | None -> Runner.config platform in
  let config =
    match scenario.Scenario.plan with
    | None -> config
    | plan -> { config with Runner.fault_plan = plan }
  in
  (* A scenario's profile replaces the load's (if any), so the same
     offered-rate shape hits original and clone. *)
  let load =
    match scenario.Scenario.profile with
    | None -> load
    | profile -> { load with Service.profile }
  in
  (* Both sides face the scenario with identical armour: the same
     deployment-level resilience overlay, scaling policy and client
     behaviour, so the comparison isolates the clone's fidelity, not its
     configuration. *)
  let load, dress =
    match scenario.Scenario.armour with
    | None -> (load, Fun.id)
    | Some (a : Scenario.armour) ->
        ( {
            load with
            Service.client_timeout = Some a.Scenario.client_timeout;
            client_retries = a.Scenario.client_retries;
          },
          fun spec ->
            Spec.with_resilience a.Scenario.resilience spec
            |> Option.fold ~none:Fun.id ~some:Spec.with_autoscale a.Scenario.autoscale )
  in
  (* The actual and the synthetic runs are independent (each builds its own
     engine and hardware state), so they ride two pool domains. *)
  let (a : Runner.output), (s : Runner.output) =
    Ditto_util.Pool.both pool
      (fun () -> Runner.run config ~load (dress result.original))
      (fun () -> Runner.run config ~load (dress result.synthetic))
  in
  {
    scenario = { scenario with Scenario.profile = load.Service.profile };
    comparison =
      {
        label;
        actual = a.Runner.per_tier;
        synthetic = s.Runner.per_tier;
        actual_end_to_end = a.Runner.end_to_end;
        synthetic_end_to_end = s.Runner.end_to_end;
        actual_raw = a.Runner.service.Service.latency_raw;
        synthetic_raw = s.Runner.service.Service.latency_raw;
        actual_measured = a.Runner.measured;
        synthetic_measured = s.Runner.measured;
        actual_service = a.Runner.service;
        synthetic_service = s.Runner.service;
      };
  }

let validate ?pool ?config_of ~platform ~load ~label result =
  (run ?pool ?config_of ~platform ~load ~label Scenario.steady result).comparison

let validate_under ?pool ?resilience ?client_timeout ?client_retries ?autoscale ?config_of
    ~platform ~load ?plan ?profile ~label result =
  let armour = Scenario.armour ?resilience ?autoscale ?client_timeout ?client_retries () in
  run ?pool ?config_of ~platform ~load ~label
    { Scenario.plan; profile; armour = Some armour }
    result

let comparison_errors c =
  (* Index the synthetic side once: on synth-1000 graphs the per-name
     List.assoc scan turns this into an O(tiers^2) hot spot. *)
  let synth_tbl = Hashtbl.create 64 in
  List.iter (fun (name, m) -> Hashtbl.replace synth_tbl name m) c.synthetic;
  List.map
    (fun (name, actual) ->
      let synthetic = Hashtbl.find synth_tbl name in
      (name, Metrics.error_pct ~actual ~synthetic))
    c.actual
