(* Tests for the microarchitecture layer: caches, predictor, prefetcher,
   counters/top-down, memory hierarchy, interval core model. *)
open Ditto_uarch
open Ditto_isa
module Rng = Ditto_util.Rng

let check_close msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tolerance actual

(* {1 Cache} *)

let test_cache_hit_after_fill () =
  let c = Cache.create ~size_bytes:4096 ~assoc:4 () in
  let hit = ref false in
  Cache.access c 0x1000 ~hit;
  Alcotest.(check bool) "first is miss" false !hit;
  Cache.access c 0x1000 ~hit;
  Alcotest.(check bool) "second is hit" true !hit;
  Cache.access c 0x1010 ~hit;
  Alcotest.(check bool) "same line hits" true !hit

let test_cache_capacity_eviction () =
  (* A working set larger than the cache must miss when cycled (LRU). *)
  let c = Cache.create ~size_bytes:1024 ~assoc:2 () in
  let hit = ref false in
  let lines = 32 in
  for pass = 1 to 3 do
    for i = 0 to lines - 1 do
      Cache.access c (i * 64) ~hit;
      if pass > 1 then Alcotest.(check bool) "cyclic > capacity always misses" false !hit
    done
  done

let test_cache_fits_working_set () =
  let c = Cache.create ~size_bytes:4096 ~assoc:8 () in
  let hit = ref false in
  for pass = 1 to 3 do
    for i = 0 to 31 do
      (* 2KB working set in a 4KB cache *)
      Cache.access c (i * 64) ~hit;
      if pass > 1 then Alcotest.(check bool) "resident set hits" true !hit
    done
  done

let test_cache_lru_order () =
  let c = Cache.create ~size_bytes:128 ~assoc:2 () in
  (* one set of 2 ways with 64B lines -> addresses 0, 128, 256 map together
     only if sets=1; 128/64/2 = 1 set. *)
  let hit = ref false in
  Cache.access c 0 ~hit;
  Cache.access c 64 ~hit;
  Cache.access c 0 ~hit;
  (* 0 is MRU; inserting a third line evicts 64 *)
  Cache.access c 128 ~hit;
  Cache.access c 0 ~hit;
  Alcotest.(check bool) "MRU survived" true !hit;
  Cache.access c 64 ~hit;
  Alcotest.(check bool) "LRU evicted" false !hit

let test_cache_invalidate_probe () =
  let c = Cache.create ~size_bytes:1024 ~assoc:4 () in
  let hit = ref false in
  Cache.access c 0x40 ~hit;
  Alcotest.(check bool) "probe present" true (Cache.probe c 0x40);
  Alcotest.(check bool) "invalidate hit" true (Cache.invalidate c 0x40);
  Alcotest.(check bool) "probe absent" false (Cache.probe c 0x40);
  Alcotest.(check bool) "invalidate miss" false (Cache.invalidate c 0x40)

let test_cache_flush () =
  let c = Cache.create ~size_bytes:1024 ~assoc:4 () in
  let hit = ref false in
  Cache.access c 0 ~hit;
  Cache.flush c;
  Cache.access c 0 ~hit;
  Alcotest.(check bool) "cold after flush" false !hit

let test_cache_plru () =
  let c = Cache.create ~replacement:Cache.Plru ~size_bytes:4096 ~assoc:8 () in
  let hit = ref false in
  for i = 0 to 7 do
    Cache.access c (i * 512) ~hit (* map to the same set region *)
  done;
  Cache.access c 0 ~hit;
  Alcotest.(check bool) "plru retains within capacity" true (Cache.sets c >= 1)

(* {1 Branch predictor} *)

let test_predictor_biased_branch () =
  let bp = Branch_pred.create ~entries:4096 ~btb_entries:1024 () in
  let mp = ref 0 in
  for _ = 1 to 1000 do
    match Branch_pred.predict_and_update bp ~pc:0x100 ~taken:true with
    | `Mispredict -> incr mp
    | `Correct | `Btb_miss -> ()
  done;
  Alcotest.(check bool) "always-taken nearly perfect" true (!mp < 25)

let test_predictor_periodic_pattern () =
  let bp = Branch_pred.create ~entries:16384 ~btb_entries:4096 () in
  let mp = ref 0 in
  for k = 0 to 9999 do
    let taken = Block.branch_outcome ~m:2 ~n:4 k in
    match Branch_pred.predict_and_update bp ~pc:0x200 ~taken with
    | `Mispredict -> incr mp
    | `Correct | `Btb_miss -> ()
  done;
  Alcotest.(check bool) "periodic pattern learned (<10% miss)" true (!mp < 1000)

let test_predictor_random_hard () =
  let bp = Branch_pred.create ~entries:4096 ~btb_entries:1024 () in
  let rng = Rng.create 77 in
  let mp = ref 0 in
  for _ = 1 to 4000 do
    match Branch_pred.predict_and_update bp ~pc:0x300 ~taken:(Rng.bool rng) with
    | `Mispredict -> incr mp
    | `Correct | `Btb_miss -> ()
  done;
  Alcotest.(check bool) "random is hard (>30% miss)" true (!mp > 1200)

let test_btb_miss_on_new_target () =
  let bp = Branch_pred.create ~entries:64 ~btb_entries:64 () in
  Alcotest.(check bool) "first unconditional misses BTB" true
    (Branch_pred.note_unconditional bp ~pc:0x999 = `Btb_miss);
  Alcotest.(check bool) "second hits" true
    (Branch_pred.note_unconditional bp ~pc:0x999 = `Correct)

(* {1 Prefetcher} *)

let test_prefetcher_stride () =
  let p = Prefetcher.create ~degree:2 () in
  let fills = ref [] in
  for i = 0 to 9 do
    Prefetcher.observe p ~pc:0x10 ~addr:(i * 64) (fun a -> fills := a :: !fills)
  done;
  Alcotest.(check bool) "stride confirmed -> prefetches issued" true (List.length !fills > 0);
  (* prefetches land ahead of the stream *)
  List.iter (fun a -> Alcotest.(check bool) "ahead" true (a > 0)) !fills

let test_prefetcher_random_silent () =
  let p = Prefetcher.create () in
  let rng = Rng.create 9 in
  let fills = ref 0 in
  for _ = 1 to 200 do
    Prefetcher.observe p ~pc:0x20 ~addr:(64 * Rng.int rng 100000) (fun _ -> incr fills)
  done;
  Alcotest.(check bool) "random stream mostly silent" true (!fills < 20)

(* {1 Counters and top-down} *)

let test_counters_derived () =
  let c = Counters.create () in
  c.Counters.insts <- 1000;
  c.Counters.s.Counters.cycles <- 500.0;
  c.Counters.branches <- 100;
  c.Counters.mispredicts <- 5;
  c.Counters.l1d_accesses <- 400;
  c.Counters.l1d_misses <- 40;
  Alcotest.(check (float 1e-9)) "ipc" 2.0 (Counters.ipc c);
  Alcotest.(check (float 1e-9)) "cpi" 0.5 (Counters.cpi c);
  Alcotest.(check (float 1e-9)) "branch miss" 0.05 (Counters.branch_miss_rate c);
  Alcotest.(check (float 1e-9)) "l1d miss" 0.1 (Counters.l1d_miss_rate c);
  Alcotest.(check (float 1e-9)) "mpki" 5.0 (Counters.branch_mpki c)

let test_counters_sub_acc () =
  let a = Counters.create () and b = Counters.create () in
  a.Counters.insts <- 10;
  b.Counters.insts <- 4;
  let d = Counters.sub a b in
  Alcotest.(check int) "sub" 6 d.Counters.insts;
  Counters.acc b d;
  Alcotest.(check int) "acc" 10 b.Counters.insts;
  Counters.reset a;
  Alcotest.(check int) "reset" 0 a.Counters.insts

let test_topdown_normalised () =
  let c = Counters.create () in
  c.Counters.s.Counters.retiring <- 30.0;
  c.Counters.s.Counters.frontend <- 30.0;
  c.Counters.s.Counters.bad_spec <- 20.0;
  c.Counters.s.Counters.backend <- 20.0;
  let td = Counters.topdown c in
  check_close "sums to 1" 1e-9 1.0
    (td.Counters.retiring +. td.Counters.frontend +. td.Counters.bad_speculation
   +. td.Counters.backend);
  Alcotest.(check (float 1e-9)) "retiring" 0.3 td.Counters.retiring

(* {1 Platform} *)

let test_platform_table1 () =
  Alcotest.(check int) "A cores" 22 Platform.a.Platform.cores;
  Alcotest.(check int) "B L2" (256 * 1024) Platform.b.Platform.l2_bytes;
  Alcotest.(check int) "A L2 = 1MB" (1024 * 1024) Platform.a.Platform.l2_bytes;
  Alcotest.(check bool) "A has SSD" true (Platform.a.Platform.disk = Platform.Ssd);
  Alcotest.(check bool) "C is Skylake" true (Platform.c.Platform.family = "Skylake");
  Alcotest.(check (float 1e-9)) "A net 10G" 10.0 Platform.a.Platform.net_gbps;
  Alcotest.(check int) "rows cover Table 1" 11 (List.length Platform.table1_rows)

let test_platform_frequency_scaling () =
  let half = Platform.with_frequency Platform.a 1.05 in
  Alcotest.(check (float 1e-9)) "freq set" 1.05 half.Platform.freq_ghz;
  Alcotest.(check bool) "dram cycles scale down" true
    (half.Platform.lat_mem < Platform.a.Platform.lat_mem)

let test_platform_lookup () =
  Alcotest.(check string) "by name" "Gold 6152" (Platform.by_name "A").Platform.cpu_model;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Platform.by_name "Z"))

(* {1 Memory hierarchy} *)

let test_memory_latency_ladder () =
  let mem = Memory.create Platform.a ~ncores:2 in
  let l1 = Memory.access_data mem ~core:0 ~addr:0x1_0000 ~write:false ~shared:false in
  Alcotest.(check bool) "cold miss costs at least DRAM (plus TLB walk)" true
    (l1 >= Platform.a.Platform.lat_mem);
  let l2 = Memory.access_data mem ~core:0 ~addr:0x1_0000 ~write:false ~shared:false in
  Alcotest.(check int) "then L1 hit" Platform.a.Platform.lat_l1 l2

let test_memory_counters_attribution () =
  let mem = Memory.create Platform.a ~ncores:2 in
  ignore (Memory.access_data mem ~core:1 ~addr:0x2_0000 ~write:false ~shared:false);
  let c0 = Memory.counters mem 0 and c1 = Memory.counters mem 1 in
  Alcotest.(check int) "core 0 untouched" 0 c0.Counters.l1d_accesses;
  Alcotest.(check int) "core 1 counted" 1 c1.Counters.l1d_accesses

let test_memory_set_counter () =
  let mem = Memory.create Platform.a ~ncores:1 in
  let mine = Counters.create () in
  Memory.set_counter mem 0 mine;
  ignore (Memory.access_data mem ~core:0 ~addr:0x40 ~write:true ~shared:false);
  Alcotest.(check int) "swapped counter sees access" 1 mine.Counters.l1d_accesses

let test_memory_coherence () =
  let mem = Memory.create Platform.a ~ncores:2 in
  (* Core 0 writes a shared line; core 1's read must pay a coherence miss
     even after having cached it. *)
  ignore (Memory.access_data mem ~core:1 ~addr:0x8000 ~write:false ~shared:true);
  ignore (Memory.access_data mem ~core:1 ~addr:0x8000 ~write:false ~shared:true);
  ignore (Memory.access_data mem ~core:0 ~addr:0x8000 ~write:true ~shared:true);
  let before = (Memory.counters mem 1).Counters.coherence_misses in
  let lat = Memory.access_data mem ~core:1 ~addr:0x8000 ~write:false ~shared:true in
  let after = (Memory.counters mem 1).Counters.coherence_misses in
  Alcotest.(check bool) "coherence miss counted" true (after > before);
  Alcotest.(check bool) "transfer latency beyond L1" true (lat > Platform.a.Platform.lat_l1)

let test_memory_inst_side () =
  let mem = Memory.create Platform.a ~ncores:1 in
  let cold = Memory.access_inst mem ~core:0 ~addr:0x1_0000 in
  Alcotest.(check bool) "cold fetch bubble" true (cold > 0);
  let warm = Memory.access_inst mem ~core:0 ~addr:0x1_0000 in
  Alcotest.(check int) "warm fetch free" 0 warm

(* {1 Core model} *)

let heap = Block.make_region ~base:0x4000_0000 ~bytes:(1 lsl 24) ~shared:false

let run_block ?(iterations = 1000) temps =
  let mem = Memory.create Platform.a ~ncores:1 in
  let core = Core_model.create mem ~core:0 in
  let b = Block.make ~label:"t" ~code_base:0x10_0000 temps in
  Core_model.exec_block core ~rng:(Rng.create 1) b ~iterations;
  Core_model.counters core

let test_core_serial_vs_parallel () =
  (* A dependent chain must be slower than independent instructions. *)
  let serial =
    List.init 8 (fun _ ->
        Block.temp (Iform.by_name "IMUL_GPR64_GPR64") ~dst:0 ~srcs:[| 0; 0 |])
  in
  let parallel =
    List.init 8 (fun i ->
        Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |])
  in
  let cs = run_block serial and cp = run_block parallel in
  Alcotest.(check bool) "serial IPC lower" true (Counters.ipc cs < Counters.ipc cp);
  Alcotest.(check bool) "parallel IPC decent" true (Counters.ipc cp > 1.0)

let test_core_port_contention () =
  (* Divides serialise on the lone divider port. *)
  let divs =
    List.init 4 (fun i -> Block.temp (Iform.by_name "IDIV_GPR64") ~dst:i ~srcs:[| i + 4 |])
  in
  let c = run_block divs in
  Alcotest.(check bool) "division-bound IPC << 1" true (Counters.ipc c < 0.3)

let test_core_memory_latency_hurts () =
  let hot =
    [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
        ~mem:(Block.Fixed_offset { region = heap; offset = 0 }) ]
  in
  let streaming =
    [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
        ~mem:(Block.Seq_stride { region = heap; start = 0; stride = 64; span = 1 lsl 24 }) ]
  in
  let ch = run_block ~iterations:4000 hot and cs = run_block ~iterations:4000 streaming in
  Alcotest.(check bool) "streaming slower than hot line" true
    (Counters.ipc cs < Counters.ipc ch)

let test_core_pointer_chase_serialises () =
  let chase =
    [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:11 ~srcs:[| 11 |]
        ~mem:(Block.Chase { region = heap; start = 0; span = 1 lsl 24 }) ]
  in
  let independent =
    [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
        ~mem:(Block.Rand_uniform { region = heap; start = 0; span = 1 lsl 24 }) ]
  in
  let cc = run_block ~iterations:2000 chase and ci = run_block ~iterations:2000 independent in
  Alcotest.(check bool) "chasing slower than independent misses" true
    (Counters.cpi cc > Counters.cpi ci)

let test_core_counts_insts () =
  let c =
    run_block ~iterations:123
      [ Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |];
        Block.temp (Iform.by_name "NOP") ]
  in
  Alcotest.(check int) "dynamic instruction count" 246 c.Counters.insts

let test_core_branches_counted () =
  let c =
    run_block ~iterations:512
      [ Block.temp (Iform.by_name "JNZ_REL") ~branch:{ Block.m = 1; n = 3; invert = false } ]
  in
  Alcotest.(check int) "branches" 512 c.Counters.branches;
  Alcotest.(check bool) "some mispredicts early" true (c.Counters.mispredicts > 0)

let test_core_width_factor () =
  let mk factor =
    let mem = Memory.create Platform.a ~ncores:1 in
    let core = Core_model.create mem ~core:0 in
    Core_model.set_width_factor core factor;
    let temps =
      List.init 16 (fun i ->
          Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |])
    in
    let b = Block.make ~label:"w" ~code_base:0x20_0000 temps in
    Core_model.exec_block core ~rng:(Rng.create 2) b ~iterations:500;
    Counters.ipc (Core_model.counters core)
  in
  Alcotest.(check bool) "halving width halves throughput-bound IPC" true
    (mk 0.5 < mk 1.0)

let test_core_rep_string_scales () =
  let rep n =
    let c =
      run_block ~iterations:50
        [ Block.temp (Iform.by_name "REP_MOVSB") ~srcs:[| 6 |] ~rep_count:n
            ~mem:(Block.Seq_stride { region = heap; start = 0; stride = 64; span = 1 lsl 20 }) ]
    in
    Counters.cycles c
  in
  Alcotest.(check bool) "bigger copies cost more" true (rep 4096 > rep 256)

let test_core_topdown_accumulates () =
  let c =
    run_block ~iterations:2000
      [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 0 |]
          ~mem:(Block.Chase { region = heap; start = 0; span = 1 lsl 24 }) ]
  in
  let td = Counters.topdown c in
  Alcotest.(check bool) "memory-bound stream is backend-bound" true
    (td.Counters.backend > td.Counters.retiring)

(* {1 Cache against a naive reference model} *)

(* A direct transcription of the replacement policies, with none of the
   hot-path machinery (way scan, stamp ticks, no stamps under PLRU): per set, a tag
   per way, a recency list for LRU and explicit tree bits for PLRU. Invalid
   ways are filled lowest-index first under both policies. *)
module Ref_cache = struct
  type t = {
    sets : int;
    assoc : int;
    plru : bool;
    tags : int array array;
    mutable order : int list array; (* ways, most recent first *)
    bits : bool array array; (* PLRU node -> "victim is in the right half" *)
  }

  let create ~plru ~sets ~assoc =
    {
      sets;
      assoc;
      plru = plru && assoc >= 2 && assoc land (assoc - 1) = 0;
      tags = Array.init sets (fun _ -> Array.make assoc (-1));
      order = Array.make sets [];
      bits = Array.init sets (fun _ -> Array.make (max 1 (assoc - 1)) false);
    }

  let locate t addr = ((addr lsr 6) land (t.sets - 1), addr lsr 6)

  let find t set tag =
    let rec go w = if w = t.assoc then None else if t.tags.(set).(w) = tag then Some w else go (w + 1) in
    go 0

  let levels t =
    let rec go n acc = if n <= 1 then acc else go (n / 2) (acc + 1) in
    go t.assoc 0

  let touch t set way =
    t.order.(set) <- way :: List.filter (fun w -> w <> way) t.order.(set);
    if t.plru then begin
      let node = ref 0 in
      for level = levels t - 1 downto 0 do
        let dir = (way lsr level) land 1 in
        t.bits.(set).(!node) <- dir = 0;
        node := (2 * !node) + 1 + dir
      done
    end

  let victim t set =
    match find t set (-1) with
    | Some w -> w
    | None ->
        if t.plru then begin
          let node = ref 0 and way = ref 0 in
          for _ = 1 to levels t do
            let dir = if t.bits.(set).(!node) then 1 else 0 in
            way := (2 * !way) + dir;
            node := (2 * !node) + 1 + dir
          done;
          !way
        end
        else List.nth t.order.(set) (List.length t.order.(set) - 1)

  let access t addr =
    let set, tag = locate t addr in
    match find t set tag with
    | Some w ->
        touch t set w;
        true
    | None ->
        let w = victim t set in
        t.tags.(set).(w) <- tag;
        touch t set w;
        false

  let probe t addr =
    let set, tag = locate t addr in
    find t set tag <> None

  let invalidate t addr =
    let set, tag = locate t addr in
    match find t set tag with
    | Some w ->
        t.tags.(set).(w) <- -1;
        true
    | None -> false

  let flush t =
    Array.iter (fun a -> Array.fill a 0 t.assoc (-1)) t.tags;
    Array.fill t.order 0 t.sets [];
    Array.iter (fun a -> Array.fill a 0 (Array.length a) false) t.bits
end

type cache_op = Access of int | Probe of int | Invalidate of int | Flush

let pp_cache_op = function
  | Access a -> Printf.sprintf "access %#x" a
  | Probe a -> Printf.sprintf "probe %#x" a
  | Invalidate a -> Printf.sprintf "invalidate %#x" a
  | Flush -> "flush"

(* Streams over a few dozen lines (so sets fill and evict), biased towards
   repeating the previous address or another byte of its line — a touch
   of the most recent line, which must leave the replacement order as it
   is — with invalidations of that line and flushes in between. *)
let gen_cache_ops =
  let open QCheck.Gen in
  let line = map (fun l -> l * 64) (int_bound 47) in
  let step prev =
    frequency
      [
        (5, map (fun a -> Access a) line);
        (4, return (Access prev));
        (2, map (fun off -> Access ((prev land lnot 63) + off)) (int_bound 63));
        (1, map (fun a -> Probe a) line);
        (1, return (Invalidate prev));
        (1, map (fun a -> Invalidate a) line);
        (1, return Flush);
      ]
  in
  let rec go n prev acc =
    if n = 0 then return (List.rev acc)
    else
      step prev >>= fun op ->
      let prev = match op with Access a | Probe a | Invalidate a -> a | Flush -> prev in
      go (n - 1) prev (op :: acc)
  in
  int_range 50 400 >>= fun n -> go n 0 []

let cache_geometries =
  [
    (Cache.Lru, 128, 2); (Cache.Lru, 1024, 2); (Cache.Lru, 2048, 4); (Cache.Lru, 768, 12);
    (Cache.Plru, 256, 4); (Cache.Plru, 2048, 8); (Cache.Plru, 1024, 2); (Cache.Plru, 768, 12);
  ]

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache = reference model (LRU/PLRU, MRU repeats)" ~count:40
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_cache_op ops)) gen_cache_ops)
    (fun ops ->
      List.for_all
        (fun (replacement, size_bytes, assoc) ->
          let c = Cache.create ~replacement ~size_bytes ~assoc () in
          let r =
            Ref_cache.create ~plru:(replacement = Cache.Plru) ~sets:(Cache.sets c) ~assoc
          in
          let hit = ref false in
          List.for_all
            (fun op ->
              match op with
              | Access a ->
                  Cache.access c a ~hit;
                  !hit = Ref_cache.access r a
              | Probe a -> Cache.probe c a = Ref_cache.probe r a
              | Invalidate a -> Cache.invalidate c a = Ref_cache.invalidate r a
              | Flush ->
                  Cache.flush c;
                  Ref_cache.flush r;
                  true)
            ops)
        cache_geometries)

(* {1 Golden pins}

   Exact counters recorded before the allocation-free rework of the core
   model, caches, TLBs and RNG: the rework must leave every integer
   counter, and every bit of every float slot, unchanged. *)

let counter_ints (c : Counters.t) =
  Counters.
    [
      c.insts; c.uops; c.branches; c.mispredicts; c.btb_misses; c.itlb_misses; c.dtlb_misses;
      c.l1i_accesses; c.l1i_misses; c.l1d_accesses; c.l1d_misses; c.l2_accesses; c.l2_misses;
      c.llc_accesses; c.llc_misses; c.coherence_misses; c.bytes_read; c.bytes_written;
    ]

let slot_bits (c : Counters.t) =
  List.map Int64.bits_of_float Counters.[ c.s.cycles; c.s.retiring; c.s.frontend; c.s.bad_spec; c.s.backend ]

let test_golden_redis_run () =
  let open Ditto_app in
  let app = Ditto_apps.Redis.spec () in
  let cfg = Runner.config ~requests:40 ~seed:11 Platform.a in
  let load = Service.load ~qps:15000.0 ~open_loop:false ~duration:0.15 () in
  let out = Runner.run cfg ~load app in
  let c = (List.assoc "redis" out.Runner.measured).Measure.counters in
  Alcotest.(check (list int)) "counter ints"
    [ 137480; 164560; 22240; 1899; 2772; 0; 220; 7480; 320; 41320; 6274; 6594; 1655; 1655;
      1655; 0; 192000; 138560 ]
    (counter_ints c);
  Alcotest.(check (list int64)) "slot bits"
    [ 0x410c116800000000L; 0x4104168000000000L; 0x40f932c000000000L; 0x40ff101000000000L;
      0x411a0b2c00000000L ]
    (slot_bits c);
  let e = out.Runner.end_to_end in
  Alcotest.(check (list int64)) "end-to-end latency bits"
    [ 0x3f06f6beb5fa8d9eL; 0x3f06d7d7bf309800L; 0x3f08929096021899L ]
    (List.map Int64.bits_of_float Ditto_util.Stats.[ e.mean; e.p50; e.p99 ])

(* Two cores sharing a hierarchy, one at half issue width, running every
   instruction class: random, strided and pointer-chasing loads, stores,
   locked RMWs on shared lines, string copies, dividers, conditional and
   unconditional control flow, over enough code to miss in the i-cache. *)
let test_golden_mixed_cores () =
  let mem = Memory.create Platform.a ~ncores:2 in
  let heap = Block.make_region ~base:0x1000_0000 ~bytes:(1 lsl 24) ~shared:false in
  let shr = Block.make_region ~base:0x4000_0000 ~bytes:(1 lsl 16) ~shared:true in
  let t = Block.temp and f = Iform.by_name in
  let temps salt =
    List.concat
      (List.init 48 (fun i ->
           [
             t (f "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |];
             t (f "MOV_GPR64_MEM") ~dst:((i + 2) mod 8) ~srcs:[| 9 |]
               ~mem:(Block.Rand_uniform { region = heap; start = 0; span = 1 lsl 22 });
             t (f "MOV_GPR64_MEM") ~dst:11 ~srcs:[| 11 |]
               ~mem:(Block.Chase { region = heap; start = 1 lsl 23; span = 1 lsl 22 });
             t (f "MOV_MEM_GPR64") ~srcs:[| 3 |]
               ~mem:
                 (Block.Seq_stride
                    { region = heap; start = salt * 4096; stride = 64; span = 1 lsl 20 });
             t (f "JNZ_REL")
               ~branch:{ Block.m = 1 + (i mod 3); n = 2 + (i mod 4); invert = i mod 2 = 0 };
             t (f (if i mod 7 = 0 then "IDIV_GPR64" else "IMUL_GPR64_GPR64")) ~dst:4 ~srcs:[| 4; 5 |];
             t (f "LOCK_ADD_MEM_GPR64") ~srcs:[| 6 |]
               ~mem:(Block.Fixed_offset { region = shr; offset = 64 * (i mod 16) });
             t (f "MOV_GPR64_MEM") ~dst:7 ~srcs:[| 8 |]
               ~mem:(Block.Rand_uniform { region = shr; start = 0; span = 1 lsl 12 });
             t (f (if i mod 5 = 0 then "REP_MOVSB" else "DIVSD_XMM_XMM"))
               ~dst:(16 + (i mod 4)) ~srcs:[| 17 |] ~rep_count:512
               ~mem:
                 (Block.Seq_stride
                    { region = heap; start = 1 lsl 22; stride = 128; span = 1 lsl 18 });
             t
               (f
                  (match i mod 4 with
                  | 0 -> "CALL_REL"
                  | 1 -> "RET_NEAR"
                  | 2 -> "JMP_REL"
                  | _ -> "PSHUFB_XMM_XMM"));
           ]))
  in
  let b0 = Block.make ~label:"m0" ~code_base:0x40_0000 (temps 0) in
  let b1 = Block.make ~label:"m1" ~code_base:0x80_0000 (temps 1) in
  let c0 = Core_model.create mem ~core:0 and c1 = Core_model.create mem ~core:1 in
  let rng = Rng.create 7 in
  Core_model.set_width_factor c1 0.5;
  for _ = 1 to 20 do
    Core_model.exec_block c0 ~rng b0 ~iterations:3;
    Core_model.exec_block c1 ~rng b1 ~iterations:2;
    Core_model.drain c0
  done;
  let check name core ints slots =
    let c = Core_model.counters core in
    Alcotest.(check (list int)) (name ^ " counter ints") ints (counter_ints c);
    Alcotest.(check (list int64)) (name ^ " slot bits") slots (slot_bits c);
    Alcotest.(check int64) (name ^ " clock bits") (List.hd slots)
      (Int64.bits_of_float (Core_model.now core))
  in
  check "core 0"
    c0
    [ 28800; 63180; 5040; 537; 82; 1; 2341; 1680; 28; 29160; 6520; 6548; 6384; 6384; 6031;
      304; 148800; 84480 ]
    [ 0x4122239580000000L; 0x40eed98000000000L; 0x40d6eb8000000000L; 0x40e1916000000000L;
      0x41410bed80000000L ];
  check "core 1"
    c1
    [ 19200; 42120; 3360; 438; 81; 1; 1840; 1120; 28; 19440; 4485; 4513; 4347; 4347; 3769;
      320; 99200; 56320 ]
    [ 0x41182b0599999997L; 0x40e4910000000000L; 0x40c6c98000000000L; 0x40cc3b0000000000L;
      0x41260bef33333330L ]

(* {1 Allocation guard} *)

(* Minor-heap words allocated per simulated instruction by warm
   [exec_block] calls. The per-instruction path must not allocate; the
   small bound absorbs the per-call constant. *)
let minor_words_per_inst temps =
  let mem = Memory.create Platform.a ~ncores:1 in
  let core = Core_model.create mem ~core:0 in
  let b = Block.make ~label:"alloc" ~code_base:0x10_0000 temps in
  let rng = Rng.create 3 in
  Core_model.exec_block core ~rng b ~iterations:200;
  let iterations = 2000 in
  let before = Gc.minor_words () in
  Core_model.exec_block core ~rng b ~iterations;
  let words = Gc.minor_words () -. before in
  words /. float_of_int (iterations * List.length temps)

let test_exec_block_allocation_free () =
  let alu =
    List.init 16 (fun i ->
        Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |])
  in
  let load =
    List.init 16 (fun i ->
        Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:(i mod 8) ~srcs:[| 9 |]
          ~mem:
            (if i mod 2 = 0 then Block.Rand_uniform { region = heap; start = 0; span = 1 lsl 22 }
             else Block.Seq_stride { region = heap; start = 0; stride = 64; span = 1 lsl 20 }))
  in
  let branch =
    List.init 16 (fun i ->
        if i mod 2 = 0 then
          Block.temp (Iform.by_name "JNZ_REL") ~branch:{ Block.m = 1 + (i mod 3); n = 2; invert = false }
        else Block.temp (Iform.by_name "CMP_GPR64_IMM") ~srcs:[| i mod 8 |])
  in
  List.iter
    (fun (name, temps) ->
      let w = minor_words_per_inst temps in
      if w > 0.05 then Alcotest.failf "%s block: %.3f minor words per instruction (> 0.05)" name w)
    [ ("alu", alu); ("load", load); ("branch", branch) ]

let () =
  Alcotest.run "uarch"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "capacity eviction" `Quick test_cache_capacity_eviction;
          Alcotest.test_case "fits working set" `Quick test_cache_fits_working_set;
          Alcotest.test_case "lru order" `Quick test_cache_lru_order;
          Alcotest.test_case "invalidate/probe" `Quick test_cache_invalidate_probe;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "plru" `Quick test_cache_plru;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20231 |])
            prop_cache_matches_reference;
        ] );
      ( "branch_pred",
        [
          Alcotest.test_case "biased branch" `Quick test_predictor_biased_branch;
          Alcotest.test_case "periodic pattern" `Quick test_predictor_periodic_pattern;
          Alcotest.test_case "random hard" `Quick test_predictor_random_hard;
          Alcotest.test_case "btb" `Quick test_btb_miss_on_new_target;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "stride" `Quick test_prefetcher_stride;
          Alcotest.test_case "random silent" `Quick test_prefetcher_random_silent;
        ] );
      ( "counters",
        [
          Alcotest.test_case "derived" `Quick test_counters_derived;
          Alcotest.test_case "sub/acc/reset" `Quick test_counters_sub_acc;
          Alcotest.test_case "topdown" `Quick test_topdown_normalised;
        ] );
      ( "platform",
        [
          Alcotest.test_case "table1" `Quick test_platform_table1;
          Alcotest.test_case "frequency scaling" `Quick test_platform_frequency_scaling;
          Alcotest.test_case "lookup" `Quick test_platform_lookup;
        ] );
      ( "memory",
        [
          Alcotest.test_case "latency ladder" `Quick test_memory_latency_ladder;
          Alcotest.test_case "attribution" `Quick test_memory_counters_attribution;
          Alcotest.test_case "set_counter" `Quick test_memory_set_counter;
          Alcotest.test_case "coherence" `Quick test_memory_coherence;
          Alcotest.test_case "inst side" `Quick test_memory_inst_side;
        ] );
      ( "core_model",
        [
          Alcotest.test_case "serial vs parallel" `Quick test_core_serial_vs_parallel;
          Alcotest.test_case "port contention" `Quick test_core_port_contention;
          Alcotest.test_case "memory latency" `Quick test_core_memory_latency_hurts;
          Alcotest.test_case "pointer chase" `Quick test_core_pointer_chase_serialises;
          Alcotest.test_case "inst counting" `Quick test_core_counts_insts;
          Alcotest.test_case "branch counting" `Quick test_core_branches_counted;
          Alcotest.test_case "width factor" `Quick test_core_width_factor;
          Alcotest.test_case "rep scaling" `Quick test_core_rep_string_scales;
          Alcotest.test_case "topdown backend" `Quick test_core_topdown_accumulates;
          Alcotest.test_case "allocation-free exec" `Quick test_exec_block_allocation_free;
        ] );
      ( "golden",
        [
          Alcotest.test_case "redis run counters" `Quick test_golden_redis_run;
          Alcotest.test_case "mixed two-core counters" `Quick test_golden_mixed_cores;
        ] );
    ]
