type entry = {
  name : string;
  spec : unit -> Ditto_app.Spec.t;
  workload : Ditto_loadgen.Workload.t;
  loads : float * float * float;
  focus_tiers : string list;
}

let all =
  [
    {
      name = "memcached";
      spec = Memcached.spec;
      workload = Memcached.workload;
      loads = Memcached.loads;
      focus_tiers = [ "memcached" ];
    };
    {
      name = "nginx";
      spec = Nginx.spec;
      workload = Nginx.workload;
      loads = Nginx.loads;
      focus_tiers = [ "nginx" ];
    };
    {
      name = "mongodb";
      spec = Mongodb.spec;
      workload = Mongodb.workload;
      loads = Mongodb.loads;
      focus_tiers = [ "mongodb" ];
    };
    {
      name = "redis";
      spec = Redis.spec;
      workload = Redis.workload;
      loads = Redis.loads;
      focus_tiers = [ "redis" ];
    };
    {
      name = "social_network";
      spec = Social_network.spec;
      workload = Social_network.workload;
      loads = Social_network.loads;
      focus_tiers = [ "TextService"; "SocialGraphService" ];
    };
  ]

(* Synthesized production-scale graphs (DESIGN.md §11). Spec generation is
   deferred behind the [spec] thunk, so listing the registry stays cheap;
   loads scale inversely with graph width since every gateway request fans
   out across the whole tier population. *)
let synth_entry ~tiers ~loads =
  {
    name = Ditto_gen.Topology.app_name tiers;
    spec =
      (fun () ->
        (Ditto_gen.Topology.generate (Ditto_gen.Topology.default ~tiers ())).Ditto_gen.Topology.spec);
    workload = Ditto_loadgen.Workload.wrk2_open;
    loads;
    focus_tiers = [ "gateway" ];
  }

let synth_sizes = [ 100; 500; 1000 ]

let extras =
  [
    {
      name = "hotel_reservation";
      spec = Hotel_reservation.spec;
      workload = Hotel_reservation.workload;
      loads = Hotel_reservation.loads;
      focus_tiers = [ "SearchService"; "GeoService" ];
    };
    {
      name = "media_service";
      spec = Media_service.spec;
      workload = Media_service.workload;
      loads = Media_service.loads;
      focus_tiers = [ "PageService"; "ReviewStorageService" ];
    };
    (* Medium load must deliver enough requests per validation window that
       the Bernoulli edge draws converge: per-request-type subgraphs see
       only a popularity-weighted slice of the traffic, and near-zero
       per-tier request counts turn the scorecard's relative errors into
       single-event noise. *)
    synth_entry ~tiers:100 ~loads:(500., 2000., 4000.);
    synth_entry ~tiers:500 ~loads:(100., 400., 800.);
    synth_entry ~tiers:1000 ~loads:(50., 200., 400.);
  ]

let by_name name =
  match List.find_opt (fun e -> e.name = name) (all @ extras) with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Registry.by_name: unknown app %S" name)

