open Ditto_isa
open Ditto_app
module Rng = Ditto_util.Rng

(* Tier indices into the shared address-space layout. *)
let idx_frontend = 0
let idx_compose = 1
let idx_unique_id = 2
let idx_text = 3
let idx_url = 4
let idx_mention = 5
let idx_user = 6
let idx_media = 7
let idx_storage = 8
let idx_user_tl = 9
let idx_home_tl = 10
let idx_social = 11
let idx_user_cache = 12
let idx_user_db = 13
let idx_post_cache = 14
let idx_post_db = 15
let idx_media_db = 16
let idx_sg_cache = 17
let idx_utl_cache = 18
let idx_htl_cache = 19
let idx_url_db = 20
let idx_media_cache = 21

let mb n = n * 1024 * 1024

let spec () =
  let rng = Rng.create 0x50C1A1 in
  let mk_space idx heap = Layout.space ~tier_index:idx ~heap_bytes:heap ~shared_bytes:(1 lsl 18) in

  (* frontend: NGINX-like HTTP termination and routing. *)
  let fe_space = mk_space idx_frontend (mb 16) in
  let fe_buffers = Layout.sub_heap fe_space ~offset:0 ~bytes:(1 lsl 19) in
  let fe_parse =
    Body_builder.build ~rng ~code_base:(Layout.code_window fe_space ~index:0) ~label:"fe_parse"
      ~insts:900
      {
        Body_builder.default_profile with
        Body_builder.w_branch = 0.22;
        branch_m = (1, 4);
        branch_n = (2, 5);
        load_patterns =
          [ (Block.Seq_stride { region = fe_buffers; start = 0; stride = 64; span = 1 lsl 19 }, 1.0) ];
        store_patterns =
          [ (Block.Seq_stride { region = fe_buffers; start = 0; stride = 64; span = 1 lsl 19 }, 1.0) ];
      }
  in
  let frontend_handler rng _req =
    let read_flow = Rng.float rng 1.0 < 0.6 in
    [
      Spec.Compute (fe_parse, 2);
      (if read_flow then
         Spec.Call { target = "HomeTimelineService"; req_bytes = 256; resp_bytes = 2048 }
       else Spec.Call { target = "ComposePostService"; req_bytes = 1024; resp_bytes = 128 });
    ]
  in

  (* compose-post: orchestration hub with wide asynchronous fan-out. *)
  let cp_space = mk_space idx_compose (mb 8) in
  let cp_logic =
    Body_builder.build ~rng ~code_base:(Layout.code_window cp_space ~index:0) ~label:"cp_logic"
      ~insts:600 Body_builder.default_profile
  in
  let compose_handler rng _req =
    List.concat
      [
        [ Spec.Compute (cp_logic, 1) ];
        [ Spec.Call { target = "UniqueIdService"; req_bytes = 64; resp_bytes = 64 } ];
        [ Spec.Call { target = "TextService"; req_bytes = 512; resp_bytes = 512 } ];
        [ Spec.Call { target = "UserService"; req_bytes = 128; resp_bytes = 256 } ];
        (if Rng.float rng 1.0 < 0.3 then
           [ Spec.Call { target = "MediaService"; req_bytes = 2048; resp_bytes = 128 } ]
         else []);
        [ Spec.Compute (cp_logic, 1) ];
        [ Spec.Call { target = "PostStorageService"; req_bytes = 1024; resp_bytes = 128 } ];
        [ Spec.Call { target = "UserTimelineService"; req_bytes = 256; resp_bytes = 128 } ];
        [ Spec.Call { target = "HomeTimelineService"; req_bytes = 256; resp_bytes = 128 } ];
      ]
  in

  (* unique-id: tiny Snowflake-style id minting. *)
  let uid_space = mk_space idx_unique_id (mb 2) in
  let uid_logic =
    Body_builder.build ~rng ~code_base:(Layout.code_window uid_space ~index:0) ~label:"uid"
      ~insts:160
      { Body_builder.default_profile with Body_builder.w_crc = 0.10; w_lock = 0.02; chain = 0.4 }
  in
  let uid_handler _rng _req = [ Spec.Compute (uid_logic, 1) ] in

  (* text-service: post-text scanning and markup (Fig. 5 column 5). *)
  let tx_space = mk_space idx_text (mb 8) in
  let tx_buffers = Layout.sub_heap tx_space ~offset:0 ~bytes:(mb 2) in
  let tx_scan =
    Body_builder.build ~rng ~code_base:(Layout.code_window tx_space ~index:0) ~label:"text_scan"
      ~insts:850
      {
        Body_builder.default_profile with
        Body_builder.w_branch = 0.22;
        w_simd = 0.08;
        branch_m = (1, 4);
        branch_n = (2, 5);
        load_patterns =
          [ (Block.Seq_stride { region = tx_buffers; start = 0; stride = 64; span = mb 2 }, 1.0) ];
        store_patterns =
          [ (Block.Seq_stride { region = tx_buffers; start = 0; stride = 64; span = mb 2 }, 1.0) ];
      }
  in
  let tx_copy =
    Body_builder.copy_block ~code_base:(Layout.code_window tx_space ~index:2) ~label:"text_copy"
      ~src:(Block.Rand_uniform { region = tx_buffers; start = 0; span = mb 2 })
      ~bytes:512
  in
  let text_handler rng _req =
    List.concat
      [
        [ Spec.Compute (tx_scan, 1); Spec.Compute (tx_copy, 1) ];
        (if Rng.float rng 1.0 < 0.5 then
           [ Spec.Call { target = "UrlShortenService"; req_bytes = 256; resp_bytes = 128 } ]
         else []);
        (if Rng.float rng 1.0 < 0.5 then
           [ Spec.Call { target = "UserMentionService"; req_bytes = 256; resp_bytes = 128 } ]
         else []);
        [ Spec.Compute (tx_scan, 1) ];
      ]
  in

  (* url-shorten: hashing-dominated. *)
  let url_space = mk_space idx_url (mb 4) in
  let url_logic =
    Body_builder.build ~rng ~code_base:(Layout.code_window url_space ~index:0) ~label:"url"
      ~insts:300
      { Body_builder.default_profile with Body_builder.w_crc = 0.15; w_mul = 0.05; chain = 0.45 }
  in
  let url_handler rng _req =
    [ Spec.Compute (url_logic, 1) ]
    @
    if Rng.float rng 1.0 < 0.5 then
      [ Spec.Call { target = "UrlShortenDB"; req_bytes = 256; resp_bytes = 256 } ]
    else []
  in

  (* user-mention: username lookups. *)
  let um_space = mk_space idx_mention (mb 8) in
  let um_table = Layout.sub_heap um_space ~offset:0 ~bytes:(mb 8) in
  let um_probe =
    Body_builder.chase_block ~code_base:(Layout.code_window um_space ~index:0) ~label:"um_probe"
      ~region:um_table ~span:(mb 8) ~hops:2
  in
  let um_logic =
    Body_builder.build ~rng ~code_base:(Layout.code_window um_space ~index:1) ~label:"um_logic"
      ~insts:350
      { Body_builder.default_profile with Body_builder.w_branch = 0.20 }
  in
  let um_handler _rng _req = [ Spec.Compute (um_logic, 1); Spec.Compute (um_probe, 1) ] in

  (* user: auth/session checks. *)
  let us_space = mk_space idx_user (mb 8) in
  let us_table = Layout.sub_heap us_space ~offset:0 ~bytes:(mb 4) in
  let us_probe =
    Body_builder.chase_block ~code_base:(Layout.code_window us_space ~index:0) ~label:"user_probe"
      ~region:us_table ~span:(mb 4) ~hops:2
  in
  let us_logic =
    Body_builder.build ~rng ~code_base:(Layout.code_window us_space ~index:1) ~label:"user_logic"
      ~insts:450
      { Body_builder.default_profile with Body_builder.w_crc = 0.04 }
  in
  let user_handler _rng _req = [ Spec.Compute (us_logic, 1); Spec.Compute (us_probe, 1) ] in

  (* media: SIMD-heavy thumbnail/transcode-ish work. *)
  let md_space = mk_space idx_media (mb 32) in
  let md_buffers = Layout.sub_heap md_space ~offset:0 ~bytes:(mb 16) in
  let md_logic =
    Body_builder.build ~rng ~code_base:(Layout.code_window md_space ~index:0) ~label:"media"
      ~insts:1500
      {
        Body_builder.default_profile with
        Body_builder.w_simd = 0.20;
        w_fp = 0.06;
        w_load = 0.26;
        w_branch = 0.08;
        load_patterns =
          [ (Block.Seq_stride { region = md_buffers; start = 0; stride = 64; span = mb 16 }, 1.0) ];
        store_patterns =
          [ (Block.Seq_stride { region = md_buffers; start = mb 8; stride = 64; span = mb 8 }, 1.0) ];
      }
  in
  let media_handler _rng _req = [ Spec.Compute (md_logic, 1) ] in

  (* post-storage: MongoDB-like document store over a 1GB dataset. *)
  let ps_space = mk_space idx_storage (mb 64) in
  let ps_index = Layout.sub_heap ps_space ~offset:0 ~bytes:(mb 48) in
  let ps_parse =
    Body_builder.build ~rng ~code_base:(Layout.code_window ps_space ~index:0) ~label:"ps_bson"
      ~insts:600 Body_builder.default_profile
  in
  let ps_btree =
    Body_builder.chase_block ~code_base:(Layout.code_window ps_space ~index:2) ~label:"ps_btree"
      ~region:ps_index ~span:(mb 48) ~hops:8
  in
  let ps_dataset = 1024 * 1024 * 1024 in
  let storage_handler rng _req =
    let read = Rng.float rng 1.0 < 0.7 in
    if read then
      [
        Spec.Compute (ps_parse, 1);
        Spec.Compute (ps_btree, 1);
        Spec.File_read
          { offset = 4096 * Rng.int rng (ps_dataset / 4096); bytes = 4096; random = true };
      ]
    else
      [ Spec.Compute (ps_parse, 1); Spec.Compute (ps_btree, 1); Spec.File_write { bytes = 4096 } ]
  in

  (* user-timeline / home-timeline: Redis-backed timeline stores. *)
  let mk_timeline idx label calls =
    let space = mk_space idx (mb 32) in
    let store = Layout.sub_heap space ~offset:0 ~bytes:(mb 16) in
    let probe =
      Body_builder.chase_block ~code_base:(Layout.code_window space ~index:0)
        ~label:(label ^ "_probe") ~region:store ~span:(mb 16) ~hops:3
    in
    let rank =
      Body_builder.build ~rng ~code_base:(Layout.code_window space ~index:1)
        ~label:(label ^ "_rank") ~insts:400
        { Body_builder.default_profile with Body_builder.w_fp = 0.08; w_mul = 0.04 }
    in
    fun rng _req ->
      List.concat
        [ [ Spec.Compute (probe, 1); Spec.Compute (rank, 1) ]; calls rng ]
  in
  let user_tl_handler =
    mk_timeline idx_user_tl "utl" (fun rng ->
        if Rng.float rng 1.0 < 0.3 then
          [ Spec.Call { target = "PostStorageService"; req_bytes = 256; resp_bytes = 1024 } ]
        else [])
  in
  let home_tl_handler =
    mk_timeline idx_home_tl "htl" (fun rng ->
        List.concat
          [
            [ Spec.Call { target = "PostStorageService"; req_bytes = 256; resp_bytes = 1024 } ];
            (if Rng.float rng 1.0 < 0.5 then
               [ Spec.Call { target = "PostStorageService"; req_bytes = 256; resp_bytes = 1024 } ]
             else []);
            (if Rng.float rng 1.0 < 0.4 then
               [ Spec.Call { target = "SocialGraphService"; req_bytes = 128; resp_bytes = 512 } ]
             else []);
          ])
  in

  (* social-graph: follow-relationship traversal (Fig. 5 column 6). The
     socfb-Reed98 graph is small (962 users / 18.8K edges), so the
     adjacency structure is cache-resident and the service runs at high
     IPC with few LLC misses, as the paper observes. *)
  let sg_space = mk_space idx_social (mb 8) in
  let sg_adjacency = Layout.sub_heap sg_space ~offset:0 ~bytes:(mb 1) in
  let sg_walk =
    Body_builder.chase_block ~code_base:(Layout.code_window sg_space ~index:0) ~label:"sg_walk"
      ~region:sg_adjacency ~span:(mb 1) ~hops:10
  in
  let sg_merge =
    Body_builder.build ~rng ~code_base:(Layout.code_window sg_space ~index:1) ~label:"sg_merge"
      ~insts:500
      { Body_builder.default_profile with Body_builder.w_alu = 0.46; w_branch = 0.18; chain = 0.3 }
  in
  let social_handler _rng _req = [ Spec.Compute (sg_walk, 1); Spec.Compute (sg_merge, 1) ] in

  (* DeathStarBench pairs each stateful service with a Memcached cache and
     a MongoDB store; these backends bring the topology to 21 services. *)
  let mk_cache_tier idx label =
    let space = mk_space idx (mb 16) in
    let arena = Layout.sub_heap space ~offset:0 ~bytes:(mb 12) in
    let table = Layout.sub_heap space ~offset:(mb 12) ~bytes:(mb 2) in
    let parse =
      Body_builder.build ~rng ~code_base:(Layout.code_window space ~index:0)
        ~label:(label ^ "_parse") ~insts:250
        { Body_builder.default_profile with Body_builder.w_crc = 0.04; w_branch = 0.18 }
    in
    let probe =
      Body_builder.chase_block ~code_base:(Layout.code_window space ~index:1)
        ~label:(label ^ "_probe") ~region:table ~span:(mb 2) ~hops:3
    in
    let copy =
      Body_builder.copy_block ~code_base:(Layout.code_window space ~index:2)
        ~label:(label ^ "_copy")
        ~src:(Block.Rand_uniform { region = arena; start = 0; span = mb 12 })
        ~bytes:1024
    in
    fun _rng _req -> [ Spec.Compute (parse, 1); Spec.Compute (probe, 1); Spec.Compute (copy, 1) ]
  in
  let mk_db_tier idx label ~dataset =
    let space = mk_space idx (mb 32) in
    let index_region = Layout.sub_heap space ~offset:0 ~bytes:(mb 24) in
    let parse =
      Body_builder.build ~rng ~code_base:(Layout.code_window space ~index:0)
        ~label:(label ^ "_bson") ~insts:500 Body_builder.default_profile
    in
    let btree =
      Body_builder.chase_block ~code_base:(Layout.code_window space ~index:2)
        ~label:(label ^ "_btree") ~region:index_region ~span:(mb 24) ~hops:6
    in
    fun rng _req ->
      let read = Rng.float rng 1.0 < 0.8 in
      if read then
        [
          Spec.Compute (parse, 1);
          Spec.Compute (btree, 1);
          Spec.File_read { offset = 4096 * Rng.int rng (dataset / 4096); bytes = 4096; random = true };
        ]
      else [ Spec.Compute (parse, 1); Spec.Compute (btree, 1); Spec.File_write { bytes = 4096 } ]
  in
  (* Cache-aside: hit in the cache tier, or fall through to the store. *)
  let cache_aside ~cache ~db ~miss_p base rng req =
    base rng req
    @ [ Spec.Call { target = cache; req_bytes = 128; resp_bytes = 1024 } ]
    @
    if Rng.float rng 1.0 < miss_p then
      [ Spec.Call { target = db; req_bytes = 256; resp_bytes = 1024 } ]
    else []
  in
  let t ?(workers = 2) ?(client = Spec.Sync_client) ?(req = 256) ?(resp = 512) ?(heap = mb 8)
      ?(file = 0) name handler =
    Spec.tier ~name ~server_model:Spec.Io_multiplexing ~client_model:client ~workers
      ~request_bytes:req ~response_bytes:resp ~heap_bytes:heap ~shared_bytes:(1 lsl 18)
      ~file_bytes:file ~handler ()
  in
  Spec.make ~name:"social_network" ~entry:"frontend"
    ~page_cache_hint:(512 * 1024 * 1024)
    [
      t "frontend" frontend_handler ~req:384 ~resp:1024 ~heap:(mb 16);
      t "ComposePostService" compose_handler ~client:Spec.Async_client ~req:1024 ~resp:128;
      t "UniqueIdService" uid_handler ~req:64 ~resp:64 ~heap:(mb 2);
      t "TextService" text_handler ~req:512 ~resp:512;
      t "UrlShortenService" url_handler ~req:256 ~resp:128 ~heap:(mb 4);
      t "UserMentionService" um_handler ~req:256 ~resp:128;
      t "UserService"
        (cache_aside ~cache:"UserCache" ~db:"UserDB" ~miss_p:0.2 user_handler)
        ~req:128 ~resp:256;
      t "MediaService"
        (cache_aside ~cache:"MediaCache" ~db:"MediaDB" ~miss_p:0.35 media_handler)
        ~req:2048 ~resp:128 ~heap:(mb 32);
      t "PostStorageService"
        (cache_aside ~cache:"PostCache" ~db:"PostDB" ~miss_p:0.3 storage_handler)
        ~workers:4 ~req:1024 ~resp:1024 ~heap:(mb 64) ~file:(1024 * 1024 * 1024);
      t "UserTimelineService"
        (cache_aside ~cache:"UserTimelineCache" ~db:"PostDB" ~miss_p:0.15 user_tl_handler)
        ~req:256 ~resp:128 ~heap:(mb 32);
      t "HomeTimelineService"
        (cache_aside ~cache:"HomeTimelineCache" ~db:"PostDB" ~miss_p:0.1 home_tl_handler)
        ~client:Spec.Async_client ~req:256 ~resp:2048 ~heap:(mb 32);
      t "SocialGraphService"
        (cache_aside ~cache:"SocialGraphCache" ~db:"UserDB" ~miss_p:0.1 social_handler)
        ~req:128 ~resp:512 ~heap:(mb 8);
      t "UrlShortenDB" (mk_db_tier idx_url_db "urldb" ~dataset:(mb 256)) ~req:256 ~resp:1024
        ~heap:(mb 32) ~file:(mb 256);
      t "UserCache" (mk_cache_tier idx_user_cache "ucache") ~req:128 ~resp:1024 ~heap:(mb 16);
      t "UserDB" (mk_db_tier idx_user_db "userdb" ~dataset:(mb 512)) ~req:256 ~resp:1024
        ~heap:(mb 32) ~file:(mb 512);
      t "PostCache" (mk_cache_tier idx_post_cache "pcache") ~req:128 ~resp:1024 ~heap:(mb 16);
      t "PostDB" (mk_db_tier idx_post_db "postdb" ~dataset:(1024 * 1024 * 1024)) ~workers:4
        ~req:256 ~resp:1024 ~heap:(mb 32) ~file:(1024 * 1024 * 1024);
      t "MediaCache" (mk_cache_tier idx_media_cache "mcache") ~req:128 ~resp:1024 ~heap:(mb 16);
      t "MediaDB" (mk_db_tier idx_media_db "mediadb" ~dataset:(mb 512)) ~req:256 ~resp:1024
        ~heap:(mb 32) ~file:(mb 512);
      t "SocialGraphCache" (mk_cache_tier idx_sg_cache "sgcache") ~req:128 ~resp:1024
        ~heap:(mb 16);
      t "UserTimelineCache" (mk_cache_tier idx_utl_cache "utlcache") ~req:128 ~resp:1024
        ~heap:(mb 16);
      t "HomeTimelineCache" (mk_cache_tier idx_htl_cache "htlcache") ~req:128 ~resp:1024
        ~heap:(mb 16);
    ]

let workload = Ditto_loadgen.Workload.wrk2_open
let loads = (300., 900., 1_600.)
let fig6_qps = [ 200.; 500.; 1000.; 1500.; 2000. ]
