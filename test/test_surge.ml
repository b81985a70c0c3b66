(* The overload layer: rate profiles as data (shape validation, the
   multiplier algebra, JSON), the canonical surge profiles, the arrival
   process they drive, the queue-depth PI autoscaler (deterministic
   scale events, bounds, cooldown), graceful degradation, the
   bit-identity guarantee (a constant/absent profile leaves the event
   stream exactly as the pre-profile code), and the surge-fidelity
   scorecard. *)
open Ditto_app
open Ditto_isa
module Profile = Ditto_loadgen.Profile
module Plan = Ditto_fault.Plan
module Pipeline = Ditto_core.Pipeline
module Surge = Ditto_report.Surge
module Ts = Ditto_obs.Timeseries
module Platform = Ditto_uarch.Platform
module Rng = Ditto_util.Rng
module Pool = Ditto_util.Pool
module Scenario = Ditto_core.Scenario

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* {1 Rate: validation and the multiplier algebra} *)

let test_rate_validation () =
  let invalid msg shape =
    match Rate.make ~name:"bad" shape with
    | _ -> Alcotest.failf "%s accepted" msg
    | exception Invalid_argument _ -> ()
  in
  invalid "amplitude above 1" [ Rate.Sinusoid { amplitude = 1.5; period = 1.0; phase = 0.0 } ];
  invalid "negative amplitude" [ Rate.Sinusoid { amplitude = -0.1; period = 1.0; phase = 0.0 } ];
  invalid "zero period" [ Rate.Sinusoid { amplitude = 0.5; period = 0.0; phase = 0.0 } ];
  invalid "negative ramp target" [ Rate.Ramp { to_mult = -1.0; over = 1.0 } ];
  invalid "zero ramp duration" [ Rate.Ramp { to_mult = 2.0; over = 0.0 } ];
  invalid "zero-extent spike"
    [ Rate.Spike { at = 0.1; rise = 0.0; hold = 0.0; fall = 0.0; mult = 4.0 } ];
  invalid "negative spike mult"
    [ Rate.Spike { at = 0.1; rise = 0.1; hold = 0.1; fall = 0.1; mult = -1.0 } ];
  invalid "empty piecewise" [ Rate.Piecewise [] ];
  invalid "unsorted piecewise" [ Rate.Piecewise [ (0.2, 2.0); (0.1, 3.0) ] ];
  invalid "negative piecewise mult" [ Rate.Piecewise [ (0.1, -2.0) ] ];
  (match Rate.make ~burst:{ Rate.batch_mean = 0.5 } ~name:"b" [] with
  | _ -> Alcotest.fail "sub-1 burst mean accepted"
  | exception Invalid_argument _ -> ());
  (match Rate.make ~name:"" [] with
  | _ -> Alcotest.fail "empty name accepted"
  | exception Invalid_argument _ -> ());
  (* and the error names the profile *)
  match Rate.make ~name:"my-prof" [ Rate.Ramp { to_mult = 2.0; over = 0.0 } ] with
  | _ -> Alcotest.fail "bad ramp accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the profile" true (contains msg "my-prof")

let test_rate_mult_math () =
  let fl = Alcotest.float 1e-9 in
  let spike =
    Rate.make ~name:"s" [ Rate.Spike { at = 0.2; rise = 0.1; hold = 0.2; fall = 0.1; mult = 5.0 } ]
  in
  Alcotest.(check fl) "before spike" 1.0 (Rate.mult_at spike ~t:0.1);
  Alcotest.(check fl) "mid-rise" 3.0 (Rate.mult_at spike ~t:0.25);
  Alcotest.(check fl) "hold" 5.0 (Rate.mult_at spike ~t:0.4);
  Alcotest.(check fl) "mid-fall" 3.0 (Rate.mult_at spike ~t:0.55);
  Alcotest.(check fl) "after spike" 1.0 (Rate.mult_at spike ~t:0.9);
  let ramp = Rate.make ~name:"r" [ Rate.Ramp { to_mult = 4.0; over = 1.0 } ] in
  Alcotest.(check fl) "ramp start" 1.0 (Rate.mult_at ramp ~t:0.0);
  Alcotest.(check fl) "ramp midpoint" 2.5 (Rate.mult_at ramp ~t:0.5);
  Alcotest.(check fl) "ramp held past end" 4.0 (Rate.mult_at ramp ~t:2.0);
  let steps = Rate.make ~name:"p" [ Rate.Piecewise [ (0.1, 2.0); (0.3, 0.5) ] ] in
  Alcotest.(check fl) "before first step" 1.0 (Rate.mult_at steps ~t:0.05);
  Alcotest.(check fl) "first step" 2.0 (Rate.mult_at steps ~t:0.2);
  Alcotest.(check fl) "second step held" 0.5 (Rate.mult_at steps ~t:9.0);
  (* a full-amplitude sinusoid touches zero at the trough, never below *)
  let sine = Rate.make ~name:"sin" [ Rate.Sinusoid { amplitude = 1.0; period = 1.0; phase = 0.0 } ] in
  Alcotest.(check fl) "sinusoid trough clamps at 0" 0.0 (Rate.mult_at sine ~t:0.75);
  Alcotest.(check fl) "sinusoid crest" 2.0 (Rate.mult_at sine ~t:0.25);
  (* composition multiplies term-wise; scale is a constant factor *)
  let both = Rate.compose spike ramp in
  Alcotest.(check fl) "compose multiplies" (5.0 *. 2.2) (Rate.mult_at both ~t:0.4);
  Alcotest.(check string) "compose names" "s+r" both.Rate.profile_name;
  let half = Rate.scale 0.5 ramp in
  Alcotest.(check fl) "scale by 0.5" 1.25 (Rate.mult_at half ~t:0.5);
  Alcotest.(check fl) "peak is the spike mult" 5.0 (Rate.peak_mult spike);
  Alcotest.(check fl) "peak of a product bounds" 20.0 (Rate.peak_mult both);
  (* the constant identity *)
  Alcotest.(check bool) "constant is constant" true (Rate.is_constant Rate.constant);
  Alcotest.(check bool) "explicit Constant terms too" true
    (Rate.is_constant (Rate.make ~name:"c" [ Rate.Constant; Rate.Constant ]));
  Alcotest.(check bool) "burst defeats constancy" false
    (Rate.is_constant (Rate.make ~burst:{ Rate.batch_mean = 3.0 } ~name:"c" []));
  Alcotest.(check bool) "spike is not constant" false (Rate.is_constant spike);
  Alcotest.(check fl) "constant mean" 1.0 (Rate.mean_mult Rate.constant ~duration:1.0);
  (* ramp 1 -> 4 over the whole window: mean 2.5 *)
  Alcotest.(check (Alcotest.float 1e-2)) "ramp mean" 2.5 (Rate.mean_mult ramp ~duration:1.0)

let all_terms_profile =
  Rate.make ~burst:{ Rate.batch_mean = 3.0 } ~name:"everything"
    [
      Rate.Constant;
      Rate.Sinusoid { amplitude = 0.4; period = 2.0; phase = 0.5 };
      Rate.Ramp { to_mult = 2.0; over = 1.5 };
      Rate.Spike { at = 0.3; rise = 0.05; hold = 0.2; fall = 0.15; mult = 4.0 };
      Rate.Piecewise [ (0.0, 1.0); (0.5, 1.5) ];
    ]

let test_rate_json_roundtrip () =
  let back = Rate.of_json (Rate.to_json all_terms_profile) in
  Alcotest.(check string) "name survives" "everything" back.Rate.profile_name;
  Alcotest.(check bool) "shape survives" true (back.Rate.shape = all_terms_profile.Rate.shape);
  Alcotest.(check bool) "burst survives" true (back.Rate.burst = all_terms_profile.Rate.burst);
  let path = Filename.temp_file "ditto_rate" ".json" in
  Rate.save ~path all_terms_profile;
  let loaded = Rate.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true
    (loaded.Rate.shape = all_terms_profile.Rate.shape
    && loaded.Rate.burst = all_terms_profile.Rate.burst);
  (* unknown kinds are a parse error, not silent garbage *)
  let module J = Ditto_util.Jsonx in
  match
    Rate.of_json
      (J.Obj
         [
           ("name", J.Str "x");
           ("shape", J.List [ J.Obj [ ("kind", J.Str "meteor") ] ]);
         ])
  with
  | _ -> Alcotest.fail "unknown kind accepted"
  | exception J.Parse_error _ -> ()

(* {1 Canonical profiles} *)

let test_profile_canonical () =
  let fl = Alcotest.float 1e-9 in
  Alcotest.(check (list string))
    "the three scenarios"
    [ "flash-crowd"; "diurnal"; "ramp-to-saturation" ]
    Profile.names;
  Alcotest.(check (list string)) "canonical order matches names" Profile.names
    (List.map
       (fun (p : Rate.t) -> p.Rate.profile_name)
       (Profile.canonical ~duration:2.0));
  List.iter
    (fun name ->
      let p = Profile.by_name ~duration:2.0 name in
      Alcotest.(check string) "by_name finds it" name p.Rate.profile_name;
      Alcotest.(check bool) "canonical profiles are not constant" false (Rate.is_constant p))
    Profile.names;
  (match Profile.by_name ~duration:2.0 "tsunami" with
  | _ -> Alcotest.fail "unknown profile accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "lists the known names" true (contains msg "flash-crowd"));
  (* phase boundaries scale with the duration *)
  let fc = Profile.flash_crowd ~duration:2.0 () in
  Alcotest.(check fl) "flash crowd quiet before onset" 1.0 (Rate.mult_at fc ~t:0.5);
  Alcotest.(check fl) "flash crowd peak 4x by default" 4.0 (Rate.peak_mult fc);
  Alcotest.(check fl) "holding at 45% of the run" 4.0 (Rate.mult_at fc ~t:0.9);
  Alcotest.(check fl) "receded by 70%" 1.0 (Rate.mult_at fc ~t:1.5);
  let rs = Profile.ramp_to_saturation ~duration:2.0 () in
  Alcotest.(check fl) "ramp hits 6x at 80%" 6.0 (Rate.mult_at rs ~t:1.6);
  let di = Profile.diurnal ~amplitude:0.5 ~duration:2.0 () in
  Alcotest.(check (Alcotest.float 1e-6)) "diurnal crest at quarter period" 1.5
    (Rate.mult_at di ~t:0.5)

(* {1 Arrival process} *)

let test_arrival_process () =
  (* Plain Poisson: mean gap = 1/rate, batches of one. *)
  let n = 20_000 in
  let rng = Rng.create 42 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let a = Rate.next_arrival Rate.constant rng ~base_qps:1000.0 ~t:0.0 in
    Alcotest.(check int) "no burst: batch of one" 1 a.Rate.batch;
    total := !total +. a.Rate.gap
  done;
  let mean_gap = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.2e near 1ms" mean_gap)
    true
    (Float.abs (mean_gap -. 1e-3) /. 1e-3 < 0.05);
  (* a 4x multiplier quadruples the instantaneous rate *)
  let spike =
    Rate.make ~name:"s" [ Rate.Spike { at = 0.0; rise = 0.0; hold = 1.0; fall = 0.0; mult = 4.0 } ]
  in
  let total4 = ref 0.0 in
  for _ = 1 to n do
    total4 := !total4 +. (Rate.next_arrival spike rng ~base_qps:1000.0 ~t:0.5).Rate.gap
  done;
  let mean4 = !total4 /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "4x mult quarters the gap (%.2e)" mean4)
    true
    (Float.abs (mean4 -. 0.25e-3) /. 0.25e-3 < 0.05);
  (* bursty arrivals preserve the offered rate: batch/gap ~ base_qps *)
  let bursty = Rate.make ~burst:{ Rate.batch_mean = 4.0 } ~name:"b" [] in
  let gaps = ref 0.0 and arrivals = ref 0 in
  for _ = 1 to n do
    let a = Rate.next_arrival bursty rng ~base_qps:1000.0 ~t:0.0 in
    Alcotest.(check bool) "batch at least one" true (a.Rate.batch >= 1);
    gaps := !gaps +. a.Rate.gap;
    arrivals := !arrivals + a.Rate.batch
  done;
  let offered = float_of_int !arrivals /. !gaps in
  Alcotest.(check bool)
    (Printf.sprintf "bursty offered rate preserved (%.0f qps)" offered)
    true
    (Float.abs (offered -. 1000.0) /. 1000.0 < 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "mean batch near 4 (%.2f)" (float_of_int !arrivals /. float_of_int n))
    true
    (Float.abs ((float_of_int !arrivals /. float_of_int n) -. 4.0) < 0.4);
  (* same stream, same draws: the process is a pure function of the RNG *)
  let sample seed =
    let rng = Rng.create seed in
    List.init 100 (fun i ->
        Rate.next_arrival all_terms_profile rng ~base_qps:2000.0 ~t:(0.01 *. float_of_int i))
  in
  Alcotest.(check bool) "deterministic from the seed" true (sample 7 = sample 7);
  Alcotest.(check bool) "different seed, different draws" true (sample 7 <> sample 8)

(* {1 A small two-tier app under overload} *)

let make_block ~tier_index ~label n =
  let space = Layout.space ~tier_index ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  Block.make ~label ~code_base:(Layout.code_window space ~index:0)
    (List.init n (fun i ->
         Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |]))

let surge_app () =
  let front_block = make_block ~tier_index:0 ~label:"front" 64 in
  let back_block = make_block ~tier_index:1 ~label:"back" 96 in
  let front _rng _req =
    [
      Spec.Compute (front_block, 3);
      Spec.Call { target = "back"; req_bytes = 128; resp_bytes = 256 };
      Spec.Compute (front_block, 2);
    ]
  in
  (* the back tier holds its worker ~150us per request, so a 2-worker
     tier saturates near 13k qps: the 8x crowd on a 2.5-4k base is
     genuinely past capacity while the pre-spike base stays healthy *)
  let back _rng _req =
    [
      Spec.Compute (back_block, 4);
      Spec.Syscall (Ditto_os.Syscall.Nanosleep { seconds = 1.5e-4 });
    ]
  in
  Spec.make ~name:"surge_app"
    [
      Spec.tier ~name:"front" ~workers:2 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16)
        ~handler:front ();
      Spec.tier ~name:"back" ~workers:2 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16)
        ~handler:back ();
    ]

let surge_load ?profile ?(qps = 2500.0) () =
  Service.load ~qps ~duration:0.5 ~open_loop:true ~client_timeout:0.02 ~client_retries:1
    ?profile ()

let surge_policy =
  Spec.autoscale ~min_replicas:1 ~max_replicas:3 ~target_queue:4.0 ~interval:0.02
    ~cooldown:0.04 ()

let run_surge ?profile ?(resilience = Spec.resilient ~queue_bound:16 ()) ?autoscale
    ?(qps = 2500.0) () =
  let app =
    let armoured = Spec.with_resilience resilience (surge_app ()) in
    match autoscale with None -> armoured | Some p -> Spec.with_autoscale p armoured
  in
  let out =
    Runner.run (Runner.config ~requests:40 Platform.a) ~load:(surge_load ?profile ~qps ()) app
  in
  out.Runner.service

let service_fingerprint (r : Service.result) =
  ( ( r.Service.completed,
      r.Service.errors,
      r.Service.client_timeouts,
      r.Service.client_retries ),
    Array.to_list r.Service.latency_raw,
    r.Service.scale_events,
    List.map
      (fun (o : Service.tier_obs) ->
        ( o.Service.obs_name,
          ( o.Service.obs_timeouts,
            o.Service.obs_retries,
            o.Service.obs_shed,
            o.Service.obs_degraded,
            o.Service.obs_failures,
            o.Service.obs_replicas ) ))
      r.Service.tiers )

let test_constant_profile_bit_identity () =
  (* The tentpole invariant: a [None] profile, [Rate.constant] and an
     explicit all-Constant shape must produce byte-identical runs — the
     profile machinery is provably off on those paths. *)
  let bare = run_surge () in
  let const = run_surge ~profile:Rate.constant () in
  let explicit = run_surge ~profile:(Rate.make ~name:"c" [ Rate.Constant ]) () in
  Alcotest.(check bool) "constant profile = no profile" true
    (service_fingerprint bare = service_fingerprint const);
  Alcotest.(check bool) "explicit Constant terms too" true
    (service_fingerprint bare = service_fingerprint explicit);
  (* and a non-constant profile actually changes the run *)
  let surged = run_surge ~profile:(Profile.flash_crowd ~duration:0.5 ()) () in
  Alcotest.(check bool) "flash crowd perturbs the run" true
    (service_fingerprint bare <> service_fingerprint surged)

let test_autoscaler_scales_out () =
  let r =
    run_surge
      ~profile:(Profile.flash_crowd ~mult:8.0 ~duration:0.5 ())
      ~autoscale:surge_policy ~qps:4000.0 ()
  in
  let events = r.Service.scale_events in
  Alcotest.(check bool)
    (Printf.sprintf "scale events fired (%d)" (List.length events))
    true (events <> []);
  let outs =
    List.filter (fun (e : Service.scale_event) -> e.Service.se_to > e.Service.se_from) events
  in
  Alcotest.(check bool) "at least one scale-out" true (outs <> []);
  List.iter
    (fun (e : Service.scale_event) ->
      Alcotest.(check bool) "replicas within policy bounds" true
        (e.Service.se_to >= 1 && e.Service.se_to <= 3);
      Alcotest.(check bool) "every event moves the count" true
        (e.Service.se_to <> e.Service.se_from);
      Alcotest.(check bool) "tier named" true
        (List.mem e.Service.se_tier [ "front"; "back" ]))
    events;
  (* chronological, and cooldown-separated per tier *)
  let rec check_order = function
    | (a : Service.scale_event) :: (b :: _ as rest) ->
        Alcotest.(check bool) "chronological" true (a.Service.se_at <= b.Service.se_at);
        check_order rest
    | _ -> ()
  in
  check_order events;
  List.iter
    (fun tier ->
      let mine =
        List.filter (fun (e : Service.scale_event) -> e.Service.se_tier = tier) events
      in
      let rec gaps = function
        | (a : Service.scale_event) :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "cooldown respected on %s (%.3f -> %.3f)" tier a.Service.se_at
                 b.Service.se_at)
              true
              (b.Service.se_at -. a.Service.se_at >= 0.04 -. 1e-9);
            gaps rest
        | _ -> ()
      in
      gaps mine)
    [ "front"; "back" ];
  (* teardown replica counts are live and inside the bounds *)
  List.iter
    (fun (o : Service.tier_obs) ->
      Alcotest.(check bool) "teardown replicas in bounds" true
        (o.Service.obs_replicas >= 1 && o.Service.obs_replicas <= 3))
    r.Service.tiers;
  (* without a policy the log is empty and every tier reports one replica *)
  let flat = run_surge ~profile:(Profile.flash_crowd ~duration:0.5 ()) () in
  Alcotest.(check bool) "no policy, no events" true (flat.Service.scale_events = []);
  List.iter
    (fun (o : Service.tier_obs) ->
      Alcotest.(check int) "single replica without policy" 1 o.Service.obs_replicas)
    flat.Service.tiers

let test_autoscaler_deterministic () =
  let go () =
    run_surge
      ~profile:(Profile.flash_crowd ~mult:8.0 ~duration:0.5 ())
      ~autoscale:surge_policy ~qps:4000.0 ()
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "identical scale-event logs" true
    (a.Service.scale_events = b.Service.scale_events);
  Alcotest.(check bool) "identical fingerprints" true
    (service_fingerprint a = service_fingerprint b)

let test_degraded_service () =
  (* Arm degradation with a low backlog bar: under the flash crowd some
     requests must be served degraded; without the knob, none are. *)
  let degrading =
    Spec.resilient ~queue_bound:64 ~degrade:(Spec.degraded ~queue:2 ()) ()
  in
  let profile = Profile.flash_crowd ~mult:8.0 ~duration:0.5 () in
  let soft = run_surge ~profile ~resilience:degrading ~qps:4000.0 () in
  let hard = run_surge ~profile ~qps:4000.0 () in
  let degraded r =
    List.fold_left (fun acc (o : Service.tier_obs) -> acc + o.Service.obs_degraded) 0
      r.Service.tiers
  in
  Alcotest.(check bool)
    (Printf.sprintf "degraded mode served requests (%d)" (degraded soft))
    true
    (degraded soft > 0);
  Alcotest.(check int) "off by default" 0 (degraded hard)

let test_shedding_under_surge () =
  let shed r =
    List.fold_left (fun acc (o : Service.tier_obs) -> acc + o.Service.obs_shed) 0
      r.Service.tiers
  in
  let surged =
    run_surge
      ~profile:(Profile.flash_crowd ~mult:8.0 ~duration:0.5 ())
      ~resilience:(Spec.resilient ~queue_bound:8 ())
      ~qps:4000.0 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "flash crowd sheds (%d)" (shed surged))
    true (shed surged > 0)

(* {1 Surge scorecard} *)

let clone_lazy =
  lazy
    (let app = surge_app () in
     let load = surge_load () in
     (load, Pipeline.clone ~requests:80 ~profile_requests:60 ~platform:Platform.a ~load app))

let test_surge_scorecard () =
  let load, r = Lazy.force clone_lazy in
  let profile = Profile.flash_crowd ~mult:8.0 ~duration:load.Service.duration () in
  let run () =
    Pipeline.validate_under ~platform:Platform.a ~load
      ~resilience:(Spec.resilient ~queue_bound:8 ())
      ~autoscale:surge_policy ~profile ~label:"surge-test" r
  in
  (* without telemetry the scorecard refuses loudly *)
  (match Surge.of_chaos ~app:"surge_app" (run ()) with
  | _ -> Alcotest.fail "scorecard built without telemetry"
  | exception Invalid_argument _ -> ());
  Ts.enable ();
  let ch = Fun.protect ~finally:Ts.disable run in
  let sc = Surge.of_chaos ~app:"surge_app" ch in
  Alcotest.(check string) "scenario is the profile name" "flash-crowd" sc.Surge.scenario;
  (* whole-run shed fractions are raw fractions; the gap is in points *)
  let frac_ok f = f >= 0.0 && f <= 1.0 in
  Alcotest.(check bool) "actual shed fraction sane" true (frac_ok sc.Surge.shed_fraction_actual);
  Alcotest.(check bool) "clone shed fraction sane" true (frac_ok sc.Surge.shed_fraction_clone);
  Alcotest.(check (Alcotest.float 1e-9)) "err_pp is the absolute gap in points"
    (100.0 *. Float.abs (sc.Surge.shed_fraction_actual -. sc.Surge.shed_fraction_clone))
    sc.Surge.shed_fraction_err_pp;
  Alcotest.(check bool) "replica trajectory err in [0,100]" true
    (sc.Surge.replica_traj_err_pp >= 0.0 && sc.Surge.replica_traj_err_pp <= 100.0);
  Alcotest.(check bool) "onset err non-negative" true (sc.Surge.saturation_onset_err_s >= 0.0);
  (* the queue bound of 8 under an 8x crowd forces both sides to shed *)
  Alcotest.(check bool) "actual shed" true (sc.Surge.shed_total_actual > 0);
  Alcotest.(check bool) "clone shed" true (sc.Surge.shed_total_clone > 0);
  (match sc.Surge.saturation_onset_actual with
  | Some at -> Alcotest.(check bool) "onset inside the run" true (at >= 0.0 && at <= 0.5)
  | None -> Alcotest.fail "actual side shed but reports no onset");
  (* the flat keys are exactly the gated family, under app/scenario *)
  let keys = List.map fst (Surge.flat sc) in
  List.iter
    (fun metric ->
      let key = "surge_app/flash-crowd/" ^ metric in
      Alcotest.(check bool) ("flat has " ^ key) true (List.mem key keys))
    [
      "worst_window_err_pct";
      "mean_window_err_pct";
      "reconverge_seconds";
      "shed_fraction_err_pp";
      "worst_shed_window_err_pp";
      "replica_traj_err_pp";
      "saturation_onset_err_s";
    ];
  Alcotest.(check int) "and nothing else" 7 (List.length keys)

(* {1 Golden surge pin}

   A short memcached serve under a flash crowd, a mid-tier kill, admission
   control and autoscaling, pinned bit-for-bit to the values the original
   service implementation produced. test_parallel pins runs against each
   other across pool sizes; this pins them across code versions, so a
   refactor of the service bookkeeping (backlog accounting, epoll wakeups,
   fault-state lookups, replica construction) cannot shift a single event. *)

let golden_surge_run () =
  let entry = Ditto_apps.Registry.by_name "memcached" in
  let app = entry.Ditto_apps.Registry.spec () in
  let duration = 0.5 in
  let tiers = List.map (fun (t : Spec.tier) -> t.Spec.tier_name) app.Spec.tiers in
  let armoured =
    Spec.with_autoscale (Spec.autoscale ~max_replicas:4 ())
      (Spec.with_resilience (Spec.resilient ~queue_bound:48 ()) app)
  in
  let _, med, _ = entry.Ditto_apps.Registry.loads in
  let load =
    let l =
      Ditto_loadgen.Workload.to_load entry.Ditto_apps.Registry.workload ~qps:med ~duration
        ~profile:(Profile.flash_crowd ~duration ()) ()
    in
    { l with Service.client_timeout = Some 0.03; client_retries = 1 }
  in
  let config =
    Runner.config ~requests:40 ~seed:7 ~fault_plan:(Plan.kill_mid_tier ~duration ~tiers ())
      Platform.a
  in
  (Runner.run config ~load armoured).Runner.service

let service_golden_lines (r : Service.result) =
  let bits name x = Printf.sprintf "%s=%Lx" name (Int64.bits_of_float x) in
  let summary prefix (s : Ditto_util.Stats.summary) =
    [
      Printf.sprintf "%s.count=%d" prefix s.Ditto_util.Stats.count;
      bits (prefix ^ ".mean") s.Ditto_util.Stats.mean;
      bits (prefix ^ ".std") s.Ditto_util.Stats.std;
      bits (prefix ^ ".min") s.Ditto_util.Stats.min;
      bits (prefix ^ ".max") s.Ditto_util.Stats.max;
      bits (prefix ^ ".p50") s.Ditto_util.Stats.p50;
      bits (prefix ^ ".p95") s.Ditto_util.Stats.p95;
      bits (prefix ^ ".p99") s.Ditto_util.Stats.p99;
    ]
  in
  summary "e2e" r.Service.latency
  @ [
      Printf.sprintf "completed=%d errors=%d client_timeouts=%d client_retries=%d"
        r.Service.completed r.Service.errors r.Service.client_timeouts
        r.Service.client_retries;
    ]
  @ List.concat_map
      (fun (o : Service.tier_obs) ->
        summary o.Service.obs_name o.Service.obs_latency
        @ [
            Printf.sprintf "%s shed=%d retries=%d timeouts=%d replicas=%d drops=%d"
              o.Service.obs_name o.Service.obs_shed o.Service.obs_retries
              o.Service.obs_timeouts o.Service.obs_replicas o.Service.obs_link_drops;
          ])
      r.Service.tiers
  @ List.map
      (fun (e : Service.scale_event) ->
        Printf.sprintf "scale %s %d->%d at %Lx" e.Service.se_tier e.Service.se_from
          e.Service.se_to (Int64.bits_of_float e.Service.se_at))
      r.Service.scale_events

let golden_surge_expected =
  [
    "e2e.count=162051";
    "e2e.mean=3fc8e9eaa359cb5b";
    "e2e.std=3fbccfeea33572cb";
    "e2e.min=3f0959a64a01a700";
    "e2e.max=3fdb5edb45fbd34a";
    "e2e.p50=3fcaafa2fa7bfbf2";
    "e2e.p95=3fd9f89614125d4f";
    "e2e.p99=3fdb1cccc7282b8d";
    "completed=162051 errors=8749 client_timeouts=384 client_retries=10805";
    "memcached.count=162053";
    "memcached.mean=3f2bf98db99de786";
    "memcached.std=3f3e43d05c9751d4";
    "memcached.min=3ee0eee332170000";
    "memcached.max=3fbff60e4a33342c";
    "memcached.p50=3f3072183f48a000";
    "memcached.p95=3f41c1ee5358c000";
    "memcached.p99=3f41c1ee5358c000";
    "memcached shed=19552 retries=0 timeouts=0 replicas=3 drops=0";
    "scale memcached 1->2 at 3fd3333333333333";
    "scale memcached 2->3 at 3fdccccccccccccc";
  ]

let test_golden_surge_pin () =
  Alcotest.(check (list string)) "surge run matches the recorded pin" golden_surge_expected
    (service_golden_lines (golden_surge_run ()))

(* The same pin on the two-tier surge app: the front tier scales out, its
   replicas open their own downstream connections, those cross a lossy,
   delayed link (the per-connection disruptor) and ride out a front
   slowdown and a back-tier crash. *)
let golden_two_tier_run () =
  let plan =
    Plan.make ~name:"mixed"
      [
        {
          Plan.at = 0.1;
          tier = "back";
          kind = Plan.Link { add_latency = 2e-4; drop = 0.05; lasts = 0.2 };
        };
        { Plan.at = 0.15; tier = "front"; kind = Plan.Slowdown { factor = 2.0; lasts = 0.1 } };
        { Plan.at = 0.3; tier = "back"; kind = Plan.Crash { down_for = 0.05 } };
      ]
  in
  let app =
    Spec.with_autoscale surge_policy
      (Spec.with_resilience (Spec.resilient ~queue_bound:16 ()) (surge_app ()))
  in
  let config = Runner.config ~requests:40 ~fault_plan:plan Platform.a in
  (Runner.run config
     ~load:(surge_load ~profile:(Profile.flash_crowd ~mult:8.0 ~duration:0.5 ()) ~qps:4000.0 ())
     app)
    .Runner.service

let golden_two_tier_expected =
  [
    "e2e.count=6242";
    "e2e.mean=3fd1e216646e4dc6";
    "e2e.std=3fc24fda6dd57c2f";
    "e2e.min=3f2ae0c62ca9b7d0";
    "e2e.max=3fe298b639418ce6";
    "e2e.p50=3fd2026db6d85465";
    "e2e.p95=3fe134617eebbe9d";
    "e2e.p99=3fe2635699cca90f";
    "completed=6242 errors=27 client_timeouts=81 client_retries=73";
    "front.count=6292";
    "front.mean=3f58440f8196fa6d";
    "front.std=3f6b11021e33532d";
    "front.min=3f25a136e2aec8d8";
    "front.max=3fab0bafb439393c";
    "front.p50=3f483dc1e2b4c000";
    "front.p95=3f6aad141bcdc166";
    "front.p99=3f9151058680b0a3";
    "front shed=0 retries=167 timeouts=69 replicas=3 drops=31";
    "back.count=6330";
    "back.mean=3f39a79917bac187";
    "back.std=3f5c28799f7f313c";
    "back.min=3f23e688b0357000";
    "back.max=3faa0109e0a32be0";
    "back.p50=3f3342a2329b4000";
    "back.p95=3f43e5e99b36ea9a";
    "back.p99=3f441dc208033f57";
    "back shed=0 retries=0 timeouts=0 replicas=1 drops=29";
    "scale front 1->3 at 3fbeb851eb851eb9";
  ]

let test_golden_two_tier_pin () =
  Alcotest.(check (list string)) "two-tier run matches the recorded pin" golden_two_tier_expected
    (service_golden_lines (golden_two_tier_run ()))

(* {1 Golden steady-state pins}

   Short steady-load serves on the three server models: redis (one epoll
   tier), mongodb (the blocking thread-per-connection model, no worker
   timeouts) and hotel_reservation (a multi-tier epoll graph), pinned
   bit-for-bit to the values recorded before the engine learnt to cancel
   timers. The end-to-end summary, each tier's latency summary, the
   completion count and the achieved rate must all hold; event counts
   are not pinned. [achieved_qps] divides by the elapsed time the run
   reads off the engine clock, so it also guards where the clock stands
   when the run drains.

   Each run executes in a freshly spawned domain, as the pins were
   recorded: a hotel_reservation run that follows other apps' runs on the
   same domain comes out slightly different, because domain-local caches
   carry state from one run into the next. *)

let golden_steady_run name =
  let entry = Ditto_apps.Registry.by_name name in
  let _, med, _ = entry.Ditto_apps.Registry.loads in
  let load =
    Ditto_loadgen.Workload.to_load entry.Ditto_apps.Registry.workload ~qps:med ~duration:0.05 ()
  in
  let config = Runner.config ~requests:30 ~seed:11 Platform.a in
  (Runner.run config ~load (entry.Ditto_apps.Registry.spec ())).Runner.service

let steady_golden_lines (r : Service.result) =
  Printf.sprintf "achieved_qps=%Lx" (Int64.bits_of_float r.Service.achieved_qps)
  :: service_golden_lines r

let golden_steady_expected =
  [
    ( "redis",
      [
        "achieved_qps=40e0e50000000000";
        "e2e.count=1730";
        "e2e.mean=3f071b84f0ca2f24";
        "e2e.std=3eb51088b3ae6660";
        "e2e.min=3f06936030983000";
        "e2e.max=3f1114df254e04b8";
        "e2e.p50=3f06e67eaf583c00";
        "e2e.p95=3f08697fe204e1cd";
        "e2e.p99=3f095e970239de9d";
        "completed=1730 errors=0 client_timeouts=0 client_retries=0";
        "redis.count=1730";
        "redis.mean=3ed0ea31aaab2b25";
        "redis.std=3eb5101114aa1cb8";
        "redis.min=3ec952308ac76000";
        "redis.max=3efa570245609b20";
        "redis.p50=3ece841876c82000";
        "redis.p95=3edb5a15d0c93733";
        "redis.p99=3ee1816769388a74";
        "redis shed=0 retries=0 timeouts=0 replicas=1 drops=0";
      ] );
    ( "mongodb",
      [
        "achieved_qps=408f400000000000";
        "e2e.count=50";
        "e2e.mean=3f1c308d31e5fd05";
        "e2e.std=3f0048762bf8aa5b";
        "e2e.min=3f0ca37afc5e3500";
        "e2e.max=3f209f2af1575200";
        "e2e.p50=3f2078f39eed1580";
        "e2e.p95=3f20999f8eed4d55";
        "e2e.p99=3f209c7371c2177a";
        "completed=50 errors=0 client_timeouts=0 client_retries=0";
        "mongodb.count=50";
        "mongodb.mean=3f11ac4733f746fb";
        "mongodb.std=3f0048762bf8aa4b";
        "mongodb.min=3eee6bbc02032400";
        "mongodb.max=3f16ba0fe4bfee00";
        "mongodb.p50=3f166da13feb7500";
        "mongodb.p95=3f16aef91febe470";
        "mongodb.p99=3f16b4a0e59578f3";
        "mongodb shed=0 retries=0 timeouts=0 replicas=1 drops=0";
      ] );
    ( "hotel_reservation",
      [
        "achieved_qps=4094a00000000000";
        "e2e.count=66";
        "e2e.mean=3f1ddb6068ec0884";
        "e2e.std=3efac6bb8f6afbf4";
        "e2e.min=3f18673f534bd600";
        "e2e.max=3f29faf87e734600";
        "e2e.p50=3f1bc592823bb080";
        "e2e.p95=3f2994875f5c9680";
        "e2e.p99=3f29eeb520e5c76d";
        "completed=66 errors=0 client_timeouts=0 client_retries=0";
        "frontend.count=66";
        "frontend.mean=3f1358d238faf055";
        "frontend.std=3efac6bb8f6afc24";
        "frontend.min=3f0bc96246b57c00";
        "frontend.max=3f24b9b1667aba00";
        "frontend.p50=3f114304524a9840";
        "frontend.p95=3f24534047640a80";
        "frontend.p99=3f24ad6e08ed3b6d";
        "frontend shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "SearchService.count=43";
        "SearchService.mean=3f079cf3f3a7098e";
        "SearchService.std=3ecd6b8640080294";
        "SearchService.min=3f004f1619369800";
        "SearchService.max=3f08e517e64c9a00";
        "SearchService.p50=3f0824757e811c00";
        "SearchService.p95=3f08c89b7445491a";
        "SearchService.p99=3f08dae64708bd8f";
        "SearchService shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "GeoService.count=43";
        "GeoService.mean=3ed878fd218cbf4d";
        "GeoService.std=3ea9c4c2f272015a";
        "GeoService.min=3ec80a5d6ffc4000";
        "GeoService.max=3edda73e87688000";
        "GeoService.p50=3ed8d01855bc0c00";
        "GeoService.p95=3edb60ddfcec5500";
        "GeoService.p99=3edcb2a5577c08cc";
        "GeoService shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "RateService.count=43";
        "RateService.mean=3ed6dea46a0aa230";
        "RateService.std=3eaabd991e914904";
        "RateService.min=3ec511495bef0000";
        "RateService.max=3ed9eda8c4cb1000";
        "RateService.p50=3ed78441f8e42000";
        "RateService.p95=3ed8fdbaa55cb000";
        "RateService.p99=3ed9ae5cb752ec52";
        "RateService shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "ReservationService.count=6";
        "ReservationService.mean=3f0f1f9d648edb00";
        "ReservationService.std=3efb5db3ceafa45b";
        "ReservationService.min=3f07c1ab7bb49600";
        "ReservationService.max=3f1ed39f2e7fc600";
        "ReservationService.p50=3f09bf5468a63200";
        "ReservationService.p95=3f1a5d96d0992980";
        "ReservationService.p99=3f1def371bb80d1a";
        "ReservationService shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "RecommendationService.count=17";
        "RecommendationService.mean=3f12f6ce8a48f648";
        "RecommendationService.std=3f05b3295ac8514a";
        "RecommendationService.min=3f05656039ded000";
        "RecommendationService.max=3f21f5aa1f83e300";
        "RecommendationService.p50=3f0755f72ae61380";
        "RecommendationService.p95=3f21f32a60a3edcd";
        "RecommendationService.p99=3f21f52a2c8a4b8f";
        "RecommendationService shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "ProfileService.count=17";
        "ProfileService.mean=3f0baa4c155b2a22";
        "ProfileService.std=3f05c564f57b1238";
        "ProfileService.min=3ef637c4c8ebe800";
        "ProfileService.max=3f1ed6bcc4f33200";
        "ProfileService.p50=3efa0910c3f87000";
        "ProfileService.p95=3f1ecfa7e253e133";
        "ProfileService.p99=3f1ed5523139bb71";
        "ProfileService shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "UserAuthService.count=6";
        "UserAuthService.mean=3ed6e05bff67a300";
        "UserAuthService.std=3e8c86cd62815e6e";
        "UserAuthService.min=3ed5b6dd5d693000";
        "UserAuthService.max=3ed7c978dd28a000";
        "UserAuthService.p50=3ed6eba11ffa4100";
        "UserAuthService.p95=3ed7c978dd28a000";
        "UserAuthService.p99=3ed7c978dd28a000";
        "UserAuthService shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "ProfileCache.count=17";
        "ProfileCache.mean=3ed58a01dfdecdc4";
        "ProfileCache.std=3e89ecff07a9c4f8";
        "ProfileCache.min=3ed4514a924bc000";
        "ProfileCache.max=3ed6d02aed14e000";
        "ProfileCache.p50=3ed594f2a053b000";
        "ProfileCache.p95=3ed6a3120dd39333";
        "ProfileCache.p99=3ed6c725f3a16a3d";
        "ProfileCache shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "ProfileDB.count=6";
        "ProfileDB.mean=3f11936acab98c80";
        "ProfileDB.std=3efa6e457feb561a";
        "ProfileDB.min=3ee66c0fed8da000";
        "ProfileDB.max=3f14c554db1ebc00";
        "ProfileDB.p50=3f147acf052f5280";
        "ProfileDB.p95=3f14b3fba7bd3e80";
        "ProfileDB.p99=3f14c1dc9da4d61a";
        "ProfileDB shed=0 retries=0 timeouts=0 replicas=1 drops=0";
        "ReservationDB.count=6";
        "ReservationDB.mean=3ef547b29c92e480";
        "ReservationDB.std=3efb568698a0fddf";
        "ReservationDB.min=3edb2cf76fe6ac00";
        "ReservationDB.max=3f149411afc71c00";
        "ReservationDB.p50=3ee4913576d8c000";
        "ReservationDB.p95=3f101a1a8f1d9980";
        "ReservationDB.p99=3f13aee042d8684e";
        "ReservationDB shed=0 retries=0 timeouts=0 replicas=1 drops=0";
      ] );
  ]

let test_golden_steady_pins () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check (list string)) (name ^ " steady run matches the recorded pin") expected
        (Domain.join (Domain.spawn (fun () -> steady_golden_lines (golden_steady_run name)))))
    golden_steady_expected

let test_scenario_name () =
  let plan = Plan.make ~name:"kill" [] in
  let prof = Profile.flash_crowd ~duration:1.0 () in
  let name = Ditto_core.Scenario.name in
  Alcotest.(check string) "steady" "steady" (name Ditto_core.Scenario.steady);
  Alcotest.(check string) "plan only" "kill" (name (Ditto_core.Scenario.make ~plan ()));
  Alcotest.(check string) "profile only" "flash-crowd"
    (name (Ditto_core.Scenario.make ~profile:prof ()));
  Alcotest.(check string) "both" "kill+flash-crowd"
    (name (Ditto_core.Scenario.make ~plan ~profile:prof ()))

(* {1 Scenario loader: canonical names, files, typed errors} *)

let bad_inputs () =
  let file contents =
    let path = Filename.temp_file "ditto_scenario" ".json" in
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
    path
  in
  let event fields = Printf.sprintf {|{"name": "bad", "events": [{%s}]}|} fields in
  [
    ("missing file", `Plan, Filename.concat (Filename.get_temp_dir_name ()) "no-such-plan.json");
    ("malformed JSON", `Plan, file "{ \"name\": ");
    ("unknown event kind", `Plan, file (event {|"at": 0.1, "tier": "redis", "kind": "meteor"|}));
    ( "non-numeric at",
      `Plan,
      file (event {|"at": "soon", "tier": "redis", "kind": "crash", "down_for": 0.1|}) );
    ( "unknown tier",
      `Plan,
      file (event {|"at": 0.1, "tier": "nope", "kind": "crash", "down_for": 0.1|}) );
    ("unknown profile name", `Profile, "tsunami");
    ("malformed profile file", `Profile, file "[1, 2");
  ]

let load_sel (kind, sel) =
  let tiers = [ "redis" ] and duration = 0.8 in
  match kind with
  | `Plan -> Scenario.load ~duration ~tiers ~plan:sel ()
  | `Profile -> Scenario.load ~duration ~tiers ~profile:sel ()

let test_scenario_load () =
  (match load_sel (`Plan, "kill-mid-tier") with
  | Ok sc ->
      Alcotest.(check string) "canonical plan" "kill-mid-tier" (Scenario.name sc);
      Alcotest.(check bool) "plan armoured, no autoscaling" true
        (match sc.Scenario.armour with Some a -> a.Scenario.autoscale = None | None -> false)
  | Error e -> Alcotest.failf "canonical plan rejected: %s" e);
  (match Scenario.load ~duration:0.8 ~tiers:[ "redis" ] ~plan:"flaky-link" ~profile:"flash-crowd" ()
   with
  | Ok sc ->
      Alcotest.(check string) "composed" "flaky-link+flash-crowd" (Scenario.name sc);
      Alcotest.(check bool) "profile arms autoscaling and the 48-deep bound" true
        (match sc.Scenario.armour with
        | Some a ->
            a.Scenario.autoscale <> None
            && a.Scenario.resilience.Spec.queue_bound = Some 48
        | None -> false)
  | Error e -> Alcotest.failf "canonical pair rejected: %s" e);
  (match Scenario.load ~duration:0.8 ~tiers:[ "redis" ] () with
  | Ok sc -> Alcotest.(check bool) "no selectors is steady" true (sc.Scenario.armour = None)
  | Error e -> Alcotest.failf "steady rejected: %s" e);
  let path = Filename.temp_file "ditto_scenario" ".json" in
  Plan.save ~path (Plan.kill_mid_tier ~duration:0.8 ~tiers:[ "redis" ] ());
  (match load_sel (`Plan, path) with
  | Ok sc -> Alcotest.(check string) "plan file" "kill-mid-tier" (Scenario.name sc)
  | Error e -> Alcotest.failf "plan file rejected: %s" e);
  Sys.remove path;
  List.iter
    (fun (what, kind, sel) ->
      match load_sel (kind, sel) with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error msg -> Alcotest.(check bool) (what ^ ": message") true (msg <> "")
      | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    (bad_inputs ())

(* The CLI checks its scenario before cloning anything, so each bad input
   is a quick exit 2. *)
let test_cli_exit_codes () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/ditto_cli.exe"
  in
  List.iter
    (fun (what, kind, sel) ->
      let flag = match kind with `Plan -> "--plan" | `Profile -> "--profile" in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process exe [| exe; "scenario"; "redis"; flag; sel |] null null null
      in
      Unix.close null;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED code -> Alcotest.(check int) (what ^ ": exit code") 2 code
      | _ -> Alcotest.failf "%s: ditto_cli killed by a signal" what)
    (bad_inputs ())

let () =
  Alcotest.run "surge"
    [
      ( "rate",
        [
          Alcotest.test_case "shape validation" `Quick test_rate_validation;
          Alcotest.test_case "multiplier algebra" `Quick test_rate_mult_math;
          Alcotest.test_case "json roundtrip" `Quick test_rate_json_roundtrip;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "canonical profiles" `Quick test_profile_canonical;
          Alcotest.test_case "arrival process" `Quick test_arrival_process;
          Alcotest.test_case "scenario naming" `Quick test_scenario_name;
        ] );
      ( "service",
        [
          Alcotest.test_case "constant profile bit-identical" `Slow
            test_constant_profile_bit_identity;
          Alcotest.test_case "autoscaler scales out" `Slow test_autoscaler_scales_out;
          Alcotest.test_case "autoscaler deterministic" `Slow test_autoscaler_deterministic;
          Alcotest.test_case "graceful degradation" `Slow test_degraded_service;
          Alcotest.test_case "shedding under surge" `Slow test_shedding_under_surge;
          Alcotest.test_case "golden surge pin" `Slow test_golden_surge_pin;
          Alcotest.test_case "golden two-tier pin" `Slow test_golden_two_tier_pin;
          Alcotest.test_case "golden steady-state pins" `Slow test_golden_steady_pins;
        ] );
      ( "scorecard",
        [ Alcotest.test_case "surge fidelity" `Slow test_surge_scorecard ] );
      ( "scenario",
        [
          Alcotest.test_case "loader names, files and typed errors" `Quick test_scenario_load;
          Alcotest.test_case "ditto_cli exits 2 on bad inputs" `Quick test_cli_exit_codes;
        ] );
    ]
