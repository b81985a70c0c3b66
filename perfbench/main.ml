(* Clone-and-validate benchmark worker.

   One process runs one workload once, the way a user's clone does: it
   clones the service, validates the clone against the original, builds
   the report, checks the outputs and prints one JSON line of
   measurements on stdout. perfbench/run.py starts a fresh process per
   repetition (so the measurement memos start cold every time), checks
   determinism across them and aggregates.

     main.exe run --workload NAME --seed N [--t0 SECONDS] [--trace | --setup-only]
     main.exe self-test

   [--t0] is the wall-clock instant the parent spawned this process; set-up
   time runs from it to the first pipeline call. [--setup-only] stops
   there and prints only the set-up time. [--trace] drives the clone stage by stage
   through public functions, each inside a benchmark-owned span, turns the
   program's existing spans and counters on, and adds per-layer figures.
   [self-test] runs the output checks on a deliberately corrupted
   comparison and must exit non-zero. *)

open Ditto_app
module Pipeline = Ditto_core.Pipeline
module Registry = Ditto_apps.Registry
module Pool = Ditto_util.Pool
module Obs = Ditto_obs.Obs
module J = Ditto_util.Jsonx
module Platform = Ditto_uarch.Platform
module Counters = Ditto_uarch.Counters

(* One domain. On a 2-vCPU host shared with other tenants, a pool of 2
   spread repetition walls four times wider than a pool of 1 (quartile
   spread 18% against 4.4% of the median, 12 interleaved repetitions of
   tune-redis on one seed) for a 10% shorter median: every minor
   collection stops all domains, so one preempted vCPU stalls both. *)
let pool_size = 1

(* The load duration `ditto_cli clone` profiles and validates with. *)
let load_duration = 0.8

type workload = Tune_redis | Surge_memcached | Fanout_social

let workloads =
  [ ("tune-redis", Tune_redis); ("surge-memcached", Surge_memcached); ("fanout-social", Fanout_social) ]

let app_name = function
  | Tune_redis -> "redis"
  | Surge_memcached -> "memcached"
  | Fanout_social -> "social_network"

let now = Unix.gettimeofday

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit code) fmt

(* {1 Output checks} *)

(* Every check is one attempted operation; the names of failed ones are
   reported and make the process exit non-zero. *)
let attempted = ref 0
let failed_checks = ref []

let check name ok =
  incr attempted;
  if not ok then failed_checks := name :: !failed_checks

let metrics_ok (m : Metrics.t) =
  let rates =
    [ m.Metrics.branch_miss_rate; m.l1i_miss_rate; m.l1d_miss_rate; m.l2_miss_rate; m.llc_miss_rate ]
  in
  List.for_all Float.is_finite
    ([ m.Metrics.qps; m.ipc; m.net_mbps; m.disk_mbps; m.lat_avg; m.lat_p50; m.lat_p95; m.lat_p99 ]
    @ rates)
  && List.for_all (fun r -> r >= 0.0 && r <= 1.0) rates

let check_comparison ~focus (c : Pipeline.comparison) =
  let label = c.Pipeline.label in
  List.iter
    (fun tier ->
      check
        (Printf.sprintf "%s: focus tier %s on both sides" label tier)
        (List.mem_assoc tier c.Pipeline.actual && List.mem_assoc tier c.Pipeline.synthetic))
    focus;
  check (label ^ ": metrics finite, miss rates in [0,1]")
    (List.for_all (fun (_, m) -> metrics_ok m) (c.Pipeline.actual @ c.Pipeline.synthetic));
  check (label ^ ": completed > 0 on both sides")
    (c.Pipeline.actual_service.Service.completed > 0
    && c.Pipeline.synthetic_service.Service.completed > 0)

(* {1 Fidelity and simulated counts} *)

let focus_errors ~focus (c : Pipeline.comparison) =
  List.concat_map
    (fun tier ->
      match (List.assoc_opt tier c.Pipeline.actual, List.assoc_opt tier c.Pipeline.synthetic) with
      | Some actual, Some synthetic -> List.map snd (Metrics.error_pct ~actual ~synthetic)
      | _ -> [])
    focus

let p99_err_pct (c : Pipeline.comparison) =
  let a = c.Pipeline.actual_end_to_end.Ditto_util.Stats.p99
  and s = c.Pipeline.synthetic_end_to_end.Ditto_util.Stats.p99 in
  100.0 *. Float.abs (s -. a) /. a

let fidelity ~focus comps =
  let errs = List.concat_map (focus_errors ~focus) comps in
  let n = float_of_int (max 1 (List.length errs)) in
  [
    ("worst_err_pct", List.fold_left Float.max 0.0 errs);
    ("mean_err_pct", List.fold_left ( +. ) 0.0 errs /. n);
    ("p99_err_pct", List.fold_left Float.max 0.0 (List.map p99_err_pct comps));
  ]

let services comps =
  List.concat_map
    (fun (c : Pipeline.comparison) -> [ c.Pipeline.actual_service; c.Pipeline.synthetic_service ])
    comps

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let tier_sum f (r : Service.result) = sum f r.Service.tiers

(* Simulated outcomes, summed over both sides of every validation. Shed
   requests are outcomes of the simulated service, not benchmark failures. *)
let sim_counts comps =
  let rs = services comps in
  [
    ("sim_requests", sum (fun r -> r.Service.completed) rs);
    ("errors", sum (fun r -> r.Service.errors) rs);
    ("shed", sum (tier_sum (fun o -> o.Service.obs_shed)) rs);
    ("retries", sum (fun r -> r.Service.client_retries + tier_sum (fun o -> o.Service.obs_retries) r) rs);
    ( "timeouts",
      sum (fun r -> r.Service.client_timeouts + tier_sum (fun o -> o.Service.obs_timeouts) r) rs );
    ("scale_events", sum (fun r -> List.length r.Service.scale_events) rs);
  ]

(* {1 The workloads} *)

let stage name f = Obs.Span.with_span ~name:("bench.stage." ^ name) f

(* [Pipeline.clone]'s steps, called one by one through public functions
   with the same arguments [Pipeline.clone] passes them. run.py checks
   that the fidelity this gives equals that of an untraced run, which
   calls [Pipeline.clone] itself. *)
let staged_clone ~pool ~tune ~seed ~platform ~load (original : Spec.t) =
  let config = Runner.config ~requests:220 ~seed platform in
  let reference = stage "reference" (fun () -> Runner.run config ~load original) in
  let dag =
    if not (Spec.is_microservice original) then None
    else
      Some
        (stage "dag" (fun () ->
             let results name = List.assoc name reference.Runner.measured in
             Ditto_trace.Dag.of_spans
               (Ditto_trace.Collector.collect ~entry:original.Spec.entry ~results ~samples:256
                  ~seed:(seed + 3))))
  in
  let profile =
    stage "profile" (fun () ->
        Ditto_profile.Tier_profile.profile_app ~requests:160 ~seed:(seed + 5) ?dag original)
  in
  let synthetic, tuning =
    if tune then
      let s, r =
        stage "tune" (fun () ->
            Ditto_tune.Tuner.tune ~seed:(seed + 11) ~pool ~config ~load ~reference ~profile ())
      in
      (s, Some r)
    else (stage "generate" (fun () -> Ditto_gen.Clone.synth_app ~seed:(seed + 11) profile), None)
  in
  { Pipeline.original; reference; dag; profile; synthetic; tuning }

type outcome = {
  result : Pipeline.clone_result;
  comps : Pipeline.comparison list;
  setup_s : float;  (** process start to the first pipeline call *)
  clone_s : float;
  validate_s : float;
}

let timed f =
  let t = now () in
  let v = f () in
  (v, now () -. t)

let run_workload ~traced ~setup_only ~pool ~seed ~t0 w =
  let entry = Registry.by_name (app_name w) in
  let focus = entry.Registry.focus_tiers in
  let low, med, high = entry.Registry.loads in
  let load qps = Ditto_loadgen.Workload.to_load entry.Registry.workload ~qps ~duration:load_duration () in
  let platform = Platform.a in
  let config_of p = Runner.config ~seed p in
  let original = entry.Registry.spec () in
  let tune = w = Tune_redis in
  let setup_s = now () -. t0 in
  if setup_only then begin
    print_endline (J.to_string (J.Obj [ ("setup_s", J.Num setup_s) ]));
    exit 0
  end;
  let result, clone_s =
    timed (fun () ->
        if traced then staged_clone ~pool ~tune ~seed ~platform ~load:(load med) original
        else Pipeline.clone ~pool ~tune ~seed ~platform ~load:(load med) original)
  in
  let validate ~qps label =
    Pipeline.validate ~pool ~config_of ~platform ~load:(load qps) ~label result
  in
  let surge () =
    let duration = load_duration in
    let tiers = List.map (fun (t : Spec.tier) -> t.Spec.tier_name) original.Spec.tiers in
    Pipeline.validate_under ~pool ~config_of ~platform ~load:(load med)
      ~resilience:(Spec.resilient ~queue_bound:48 ())
      ~autoscale:(Spec.autoscale ~max_replicas:4 ())
      ~plan:(Ditto_fault.Plan.kill_mid_tier ~duration ~tiers ())
      ~profile:(Ditto_loadgen.Profile.flash_crowd ~duration ())
      ~label:"surge" result
  in
  let validations, validate_s =
    timed (fun () ->
        stage "validate" (fun () ->
            match w with
            | Tune_redis ->
                List.map
                  (fun (qps, label) -> `Steady (validate ~qps label))
                  [ (low, "low"); (med, "medium"); (high, "high") ]
            | Fanout_social -> [ `Steady (validate ~qps:med "medium") ]
            | Surge_memcached ->
                (* The surge scorecard reads the windowed telemetry. *)
                Ditto_obs.Timeseries.enable ();
                let ch = Fun.protect ~finally:Ditto_obs.Timeseries.disable surge in
                [ `Chaos ch ]))
  in
  let app = app_name w in
  stage "report" (fun () ->
      List.iter
        (function
          | `Steady c ->
              ignore (Ditto_report.Scorecard.of_comparison ~app ?tuning:result.Pipeline.tuning c)
          | `Chaos ch -> ignore (Ditto_report.Surge.of_chaos ~app ch))
        validations);
  let comps =
    List.map (function `Steady c -> c | `Chaos ch -> ch.Pipeline.comparison) validations
  in
  (* The timed pipeline calls: one clone plus every validation. *)
  attempted := !attempted + 1 + List.length comps;
  List.iter (check_comparison ~focus) comps;
  (match (w, result.Pipeline.tuning) with
  | Tune_redis, Some r ->
      check "tuner iterations <= 10" (List.length r.Ditto_tune.Tuner.iterations <= 10)
  | Tune_redis, None -> check "tuning report present" false
  | _ -> ());
  (if w = Surge_memcached then
     let rs = services comps in
     check "surge: shedding fired" (sum (tier_sum (fun o -> o.Service.obs_shed)) rs > 0);
     check "surge: scale events within [1, 4] replicas"
       (List.for_all
          (fun (r : Service.result) ->
            List.for_all
              (fun (e : Service.scale_event) ->
                e.Service.se_from >= 1 && e.se_from <= 4 && e.se_to >= 1 && e.se_to <= 4)
              r.Service.scale_events)
          rs));
  ({ result; comps; setup_s; clone_s; validate_s }, focus)

(* {1 Per-layer figures of the traced run} *)

let span_s (s : Obs.completed) = Int64.to_float s.Obs.dur_ns *. 1e-9

(* Self time: a span's duration minus the part of it its children cover
   (children may run on other domains, so their intervals are merged). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.completed) ->
      match s.Obs.parent_id with
      | Some p -> Hashtbl.replace children p (s :: Option.value ~default:[] (Hashtbl.find_opt children p))
      | None -> ())
    spans;
  List.map
    (fun (s : Obs.completed) ->
      let lo = s.Obs.start_ns and hi = Int64.add s.Obs.start_ns s.Obs.dur_ns in
      let ivs =
        Option.value ~default:[] (Hashtbl.find_opt children s.Obs.span_id)
        |> List.map (fun (c : Obs.completed) ->
               (max lo c.Obs.start_ns, min hi (Int64.add c.Obs.start_ns c.Obs.dur_ns)))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
          (0L, lo) ivs
      in
      (s, Int64.to_float (Int64.sub s.Obs.dur_ns covered) *. 1e-9))
    spans

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The program's libraries as layers, from the names of their spans. *)
let layer_of name =
  if starts_with "bench." name || starts_with "pipeline." name || starts_with "clone." name then
    "pipeline"
  else if name = "tune" || starts_with "tune." name then "tune"
  else if name = "runner.run" then "runner"
  else if name = "runner.measure" then "measure"
  else if name = "runner.service" || name = "sim.run" then "service"
  else if starts_with "pool.task" name then "pool"
  else "other"

let layers = [ "pipeline"; "tune"; "runner"; "measure"; "service"; "pool"; "other" ]

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Direct timings of the uarch kernels, in ns per operation: median of
   five repetitions of a fixed amount of work. *)
let uarch_kernels () =
  let per_op ops f =
    median
      (List.init 5 (fun _ ->
           let t = now () in
           f ();
           (now () -. t) *. 1e9 /. float_of_int ops))
  in
  let n = 1_000_000 in
  let cache = Ditto_uarch.Cache.create ~size_bytes:32768 ~assoc:8 () in
  let hit = ref false in
  let cache_ns =
    per_op n (fun () ->
        for i = 1 to n do
          (* A 64 KiB cyclic stride over a 32 KiB cache: hits and misses. *)
          Ditto_uarch.Cache.access cache (i * 64 land 0xffff) ~hit
        done)
  in
  let bp = Ditto_uarch.Branch_pred.create ~entries:16384 ~btb_entries:4096 () in
  let predict_ns =
    per_op n (fun () ->
        for k = 1 to n do
          ignore
            (Ditto_uarch.Branch_pred.predict_and_update bp ~pc:(0x100 + (k land 0xff * 4))
               ~taken:(Ditto_isa.Block.branch_outcome ~m:2 ~n:4 k))
        done)
  in
  let mem = Ditto_uarch.Memory.create Platform.a ~ncores:1 in
  let core = Ditto_uarch.Core_model.create mem ~core:0 in
  let block =
    Ditto_isa.Block.make ~label:"perfbench" ~code_base:0x100000
      (List.init 64 (fun i ->
           Ditto_isa.Block.temp
             (Ditto_isa.Iform.by_name "ADD_GPR64_GPR64")
             ~dst:(i mod 8)
             ~srcs:[| (i + 1) mod 8 |]))
  in
  let rng = Ditto_util.Rng.create 1 in
  let reps = 100 in
  let exec_ns =
    per_op (64 * 100 * reps) (fun () ->
        for _ = 1 to reps do
          Ditto_uarch.Core_model.exec_block core ~rng block ~iterations:100
        done)
  in
  [ ("uarch.cache_access_ns", cache_ns); ("uarch.predict_ns", predict_ns); ("uarch.exec_ns_per_inst", exec_ns) ]

let traced_layers ~(o : outcome) ~wall ~(pool0 : Pool.stats) ~(pool1 : Pool.stats) =
  let spans = Obs.Export.spans () in
  let selfs = self_times spans in
  let named n = List.filter (fun (s : Obs.completed) -> s.Obs.name = n) spans in
  let total n = List.fold_left (fun a s -> a +. span_s s) 0.0 (named n) in
  let stage_s n = total ("bench.stage." ^ n) in
  let counter n = Option.value ~default:0.0 (List.assoc_opt n (Obs.Metrics.snapshot ())) in
  (* The measurement layer's speed, on the one run whose memo is cold for
     sure: the reference run of the original, the first run of the traced
     path (spans come sorted by start). *)
  let ref_measure_s =
    match named "runner.measure" with s :: _ -> span_s s | [] -> 0.0
  in
  let ref_insts =
    sum
      (fun (_, (r : Measure.tier_result)) -> r.Measure.counters.Counters.insts)
      o.result.Pipeline.reference.Runner.measured
  in
  let evaluations = named "tune.evaluate" in
  let iterations =
    match o.result.Pipeline.tuning with
    | Some r -> List.length r.Ditto_tune.Tuner.iterations
    | None -> 0
  in
  let events = counter "sim.events" in
  let counts = sim_counts o.comps in
  let count n = float_of_int (List.assoc n counts) in
  let stages = [ "reference"; "dag"; "profile"; "generate"; "tune"; "validate" ] in
  let staged = List.fold_left (fun a n -> a +. stage_s n) 0.0 stages in
  let layer_self l =
    List.fold_left (fun a (s, self) -> if layer_of s.Obs.name = l then a +. self else a) 0.0 selfs
  in
  let d f = f pool1 -. f pool0 in
  let pool_busy = d (fun s -> s.Pool.busy_seconds) in
  List.map (fun n -> ("stage." ^ n ^ "_s", stage_s n)) (stages @ [ "report" ])
  @ [
      ("tune.iterations", float_of_int iterations);
      ("tune.candidates", float_of_int (List.length evaluations));
      ( "tune.candidate_waste",
        counter "tuner.candidates_lost" /. float_of_int (max 1 (List.length evaluations)) );
      ("tune.evaluate_ms_p50", 1e3 *. median (List.map span_s evaluations));
      ("measure.busy_s", total "runner.measure");
      ("measure.sim_insts", float_of_int ref_insts);
      ("measure.ns_per_inst", ref_measure_s *. 1e9 /. float_of_int (max 1 ref_insts));
      ("service.busy_s", total "runner.service");
      ("sim.events", events);
      ("sim.ns_per_event", total "sim.run" *. 1e9 /. Float.max 1.0 events);
      ("sim.peak_heap_events", float_of_int (Ditto_sim.Engine.global_peak_heap_events ()));
      ("service.sim_requests", count "sim_requests");
      ("service.shed", count "shed");
      ("service.retries", count "retries");
      ("service.timeouts", count "timeouts");
      ("service.scale_events", count "scale_events");
      ("pool.busy_s", pool_busy);
      ("pool.idle_s", d (fun s -> s.Pool.idle_seconds));
      ("pool.tasks_queued", d (fun s -> float_of_int s.Pool.tasks_queued));
      ("pool.tasks_stolen", d (fun s -> float_of_int s.Pool.tasks_stolen));
      ("pool.parallel_efficiency", pool_busy /. (wall *. float_of_int pool_size));
      ("trace.stage_coverage", staged /. (o.clone_s +. o.validate_s));
      ("trace.spans", float_of_int (List.length spans));
      ("trace.spans_dropped", float_of_int (Obs.Export.dropped ()));
    ]
  @ List.map (fun l -> ("layer." ^ l ^ ".self_s", layer_self l)) layers

(* {1 Entry points} *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when starts_with "VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let num x = if Float.is_finite x then J.Num x else J.Null
let fields kvs = J.Obj (List.map (fun (k, v) -> (k, num v)) kvs)

let run ~workload ~seed ~t0 ~traced ~setup_only =
  let w =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None -> die 2 "unknown workload %S" workload
  in
  let pool = Pool.create ~size:pool_size () in
  if traced then Obs.enable ();
  let gc0 = Gc.quick_stat () and pool0 = Pool.stats () in
  let started = now () in
  let o, focus = run_workload ~traced ~setup_only ~pool ~seed ~t0 w in
  let finished = now () in
  let wall_s = finished -. t0 in
  let pool1 = Pool.stats () in
  Pool.shutdown pool;
  (* Worker domains fold their allocation counts into the totals when
     they are joined, so the GC figures are read after the shutdown. *)
  let gc1 = Gc.quick_stat () in
  let sim_requests = List.assoc "sim_requests" (sim_counts o.comps) in
  let timings =
    [
      ("wall_s", wall_s);
      ("setup_s", o.setup_s);
      ("clone_s", o.clone_s);
      ("validate_s", o.validate_s);
      ("sim_req_per_s", float_of_int sim_requests /. o.validate_s);
      ("peak_rss_mb", peak_rss_mb ());
    ]
  in
  let layers =
    if not traced then []
    else begin
      let ls = traced_layers ~o ~wall:(finished -. started) ~pool0 ~pool1 in
      Obs.disable ();
      (try Sys.mkdir "perfbench/traces" 0o755 with Sys_error _ -> ());
      Obs.Export.write_chrome
        (Printf.sprintf "perfbench/traces/%s-seed%d.chrome.json" workload seed);
      let coverage = List.assoc "trace.stage_coverage" ls in
      check "trace: stage spans account for clone_s + validate_s"
        (coverage >= 0.95 && coverage <= 1.0001);
      let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6 in
      ls
      @ [
          ("gc.minor_mb", mb (gc1.Gc.minor_words -. gc0.Gc.minor_words));
          ("gc.promoted_mb", mb (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
          ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ]
      @ uarch_kernels ()
    end
  in
  let failed = List.rev !failed_checks in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str workload);
            ("seed", J.int seed);
            ("traced", J.Bool traced);
            ("pool_size", J.int pool_size);
            ("nproc", J.int (Domain.recommended_domain_count ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("attempted", J.int !attempted);
            ("failed", J.list (fun s -> J.Str s) failed);
            ("timings", fields timings);
            ("fidelity", fields (fidelity ~focus o.comps));
            ("counts", fields (List.map (fun (k, v) -> (k, float_of_int v)) (sim_counts o.comps)));
            ("layers", fields layers);
          ]));
  if failed <> [] then begin
    List.iter (fun s -> prerr_endline ("perfbench: CHECK FAILED: " ^ s)) failed;
    exit 1
  end

(* A small real comparison (the original against itself, on a short run),
   then corrupted: the checks must catch it and the process exit 1. *)
let self_test () =
  let entry = Registry.by_name "redis" in
  let load = Ditto_loadgen.Workload.to_load entry.Registry.workload ~qps:5000.0 ~duration:0.02 () in
  let out = Runner.run (Runner.config ~requests:10 Platform.a) ~load (entry.Registry.spec ()) in
  let good =
    {
      Pipeline.label = "self-test";
      actual = out.Runner.per_tier;
      synthetic = out.Runner.per_tier;
      actual_end_to_end = out.Runner.end_to_end;
      synthetic_end_to_end = out.Runner.end_to_end;
      actual_raw = out.Runner.service.Service.latency_raw;
      synthetic_raw = out.Runner.service.Service.latency_raw;
      actual_measured = out.Runner.measured;
      synthetic_measured = out.Runner.measured;
      actual_service = out.Runner.service;
      synthetic_service = out.Runner.service;
    }
  in
  let focus = entry.Registry.focus_tiers in
  check_comparison ~focus good;
  if !failed_checks <> [] then die 3 "self-test: checks reject an intact comparison";
  let corrupt (name, m) = (name, { m with Metrics.l1i_miss_rate = 1.5; ipc = Float.nan }) in
  check_comparison ~focus
    {
      good with
      Pipeline.actual = List.map corrupt good.Pipeline.actual;
      synthetic = [];
      synthetic_service = { good.Pipeline.synthetic_service with Service.completed = 0 };
    };
  List.iter (fun s -> prerr_endline ("perfbench: CHECK FAILED: " ^ s)) (List.rev !failed_checks);
  exit (if !failed_checks = [] then 0 else 1)

let () =
  List.iter
    (fun v -> if Sys.getenv_opt v <> None then die 2 "refusing to run with %s set: it changes the measured program" v)
    [ "DITTO_DOMAINS"; "DITTO_MEMO" ];
  let t_start = now () in
  match Array.to_list Sys.argv |> List.tl with
  | [ "self-test" ] -> self_test ()
  | "run" :: rest ->
      let workload = ref "" and seed = ref (-1) and t0 = ref t_start in
      let traced = ref false and setup_only = ref false in
      let rec parse = function
        | "--workload" :: v :: tl -> workload := v; parse tl
        | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
        | "--t0" :: v :: tl -> t0 := float_of_string v; parse tl
        | "--trace" :: tl -> traced := true; parse tl
        | "--setup-only" :: tl -> setup_only := true; parse tl
        | [] -> ()
        | a :: _ -> die 2 "unexpected argument %S" a
      in
      parse rest;
      if !seed < 0 then die 2 "--seed N (N >= 0) is required";
      run ~workload:!workload ~seed:!seed ~t0:!t0 ~traced:!traced ~setup_only:!setup_only
  | _ ->
      die 2
        "usage: main.exe run --workload NAME --seed N [--t0 SECONDS] [--trace | --setup-only] \
         | self-test"
