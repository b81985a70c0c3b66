(* Unit and property tests for Ditto_util: RNG, distributions, statistics,
   histograms, clustering, tree edit distance, tables. *)
open Ditto_util

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tolerance actual

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let root = Rng.create 7 in
  let a = Rng.split root and b = Rng.split root in
  Alcotest.(check bool) "split streams differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

(* Golden pins: the first draws of [Rng.create 42], recorded before the
   generator's state moved from an [int64] field to raw bytes. Every
   simulated counter descends from these streams, so any change here
   changes every result. *)
let test_rng_golden () =
  let r = Rng.create 42 in
  let draws n f = List.init n (fun _ -> f ()) in
  Alcotest.(check (list int64)) "bits64"
    [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L; 0xc4b6b24ef01890eL ]
    (draws 4 (fun () -> Rng.bits64 r));
  Alcotest.(check (list int)) "int"
    [ 396095; 776037; 541850; 662874; 941886; 12692 ]
    (draws 6 (fun () -> Rng.int r 1_000_003));
  Alcotest.(check (list int64)) "float bits"
    [ 0x3fe87656a3f8c3d9L; 0x3fec5be13f199e4dL; 0x3feccc9f62cda7b8L; 0x3fb494766cf71b60L ]
    (draws 4 (fun () -> Int64.bits_of_float (Rng.float r 1.0)));
  Alcotest.(check (list bool)) "bool"
    [ false; true; true; true; false; true; true; true;
      false; true; true; false; false; false; false; false ]
    (draws 16 (fun () -> Rng.bool r));
  let child = Rng.split r in
  Alcotest.(check (list int64)) "split child"
    [ 0x3511980cd001fe1bL; 0x473b3fab3351529eL; 0x866dd3d3ce5bc76dL ]
    (draws 3 (fun () -> Rng.bits64 child));
  Alcotest.(check (list int64)) "split parent"
    [ 0x92c6c2e1375c96acL; 0x326a884f2f1dac39L; 0x5e67829d4e432baeL ]
    (draws 3 (fun () -> Rng.bits64 r));
  let c = Rng.copy child in
  Alcotest.(check (list int64)) "copy"
    [ 0x3c6da29f581e1b18L; 0x8acb2a7432fe87a6L ]
    (draws 2 (fun () -> Rng.bits64 c))

let test_rng_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.range rng 5 15 in
    Alcotest.(check bool) "in range" true (v >= 5 && v < 15)
  done

let test_rng_uniformity () =
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      check_close (Printf.sprintf "bucket %d" i) 0.02 0.1 (float_of_int c /. float_of_int n))
    buckets

let prop_int_bounds =
  QCheck.Test.make ~name:"Rng.int always in [0,n)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let test_shuffle_permutation () =
  let rng = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

(* {1 Dist} *)

let test_exponential_mean () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential rng ~mean:2.5
  done;
  check_close "exponential mean" 0.05 2.5 (!sum /. float_of_int n)

let test_normal_moments () =
  let rng = Rng.create 17 in
  let n = 50_000 in
  let s = Stats.create () in
  for _ = 1 to n do
    Stats.add s (Dist.normal rng ~mean:3.0 ~std:2.0)
  done;
  check_close "normal mean" 0.05 3.0 (Stats.mean s);
  check_close "normal std" 0.05 2.0 (Stats.std s)

let test_zipf_skew () =
  let rng = Rng.create 23 in
  let z = Dist.zipf ~n:1000 ~s:0.99 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let i = Dist.zipf_sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank 10 beats rank 500" true (counts.(10) > counts.(500))

let test_discrete_weights () =
  let rng = Rng.create 29 in
  let d = Dist.discrete [ ("a", 1.0); ("b", 3.0) ] in
  let a = ref 0 and n = 40_000 in
  for _ = 1 to n do
    if Dist.discrete_sample d rng = "a" then incr a
  done;
  check_close "weight ratio" 0.02 0.25 (float_of_int !a /. float_of_int n)

let test_discrete_support_normalised () =
  let d = Dist.discrete [ (1, 2.0); (2, 2.0); (3, 4.0) ] in
  let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 (Dist.discrete_support d) in
  check_float "probabilities sum to 1" 1.0 total

let test_discrete_rejects_empty () =
  Alcotest.check_raises "empty support" (Invalid_argument "Dist.discrete: empty or non-positive support")
    (fun () -> ignore (Dist.discrete ([] : (int * float) list)))

let test_empirical () =
  let e = Dist.empirical [| 1.0; 2.0; 3.0 |] in
  check_float "mean" 2.0 (Dist.empirical_mean e);
  let rng = Rng.create 31 in
  for _ = 1 to 100 do
    let v = Dist.empirical_sample e rng in
    Alcotest.(check bool) "sample from support" true (v = 1.0 || v = 2.0 || v = 3.0)
  done

let test_pareto_heavy_tail () =
  let rng = Rng.create 37 in
  let all_above = ref true in
  for _ = 1 to 1000 do
    if Dist.pareto rng ~scale:1.0 ~shape:2.0 < 1.0 then all_above := false
  done;
  Alcotest.(check bool) "pareto >= scale" true !all_above

(* {1 Stats} *)

let test_stats_basics () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "count" 5 (Stats.count s);
  check_float "mean" 3.0 (Stats.mean s);
  check_float "p50" 3.0 (Stats.percentile s 50.0);
  check_float "p0" 1.0 (Stats.percentile s 0.0);
  check_float "p100" 5.0 (Stats.percentile s 100.0)

let test_stats_percentile_interpolation () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 0.0; 10.0 ];
  check_float "p25 interpolates" 2.5 (Stats.percentile s 25.0)

let test_stats_add_after_sort () =
  let s = Stats.create () in
  Stats.add s 5.0;
  ignore (Stats.percentile s 50.0);
  Stats.add s 1.0;
  check_float "resorts after add" 1.0 (Stats.percentile s 0.0)

let test_stats_summary () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  let sum = Stats.summary s in
  check_float "min" 1.0 sum.Stats.min;
  check_float "max" 100.0 sum.Stats.max;
  check_close "p99" 1.0 99.0 sum.Stats.p99

let test_stats_mape () =
  let m = Stats.mape ~actual:[| 10.0; 20.0 |] ~predicted:[| 11.0; 18.0 |] in
  check_close "mape" 1e-6 10.0 m

let test_stats_mape_skips_zero () =
  let m = Stats.mape ~actual:[| 0.0; 10.0 |] ~predicted:[| 5.0; 10.0 |] in
  check_float "zero actual skipped" 0.0 m

let prop_percentile_monotonic =
  QCheck.Test.make ~name:"percentiles are monotonic" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.percentile s 10.0 <= Stats.percentile s 50.0
      && Stats.percentile s 50.0 <= Stats.percentile s 95.0)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let sum = Stats.summary s in
      sum.Stats.mean >= sum.Stats.min -. 1e-6 && sum.Stats.mean <= sum.Stats.max +. 1e-6)

(* {1 Histogram} *)

let test_histogram_counts () =
  let h = Histogram.create () in
  Histogram.add h 3;
  Histogram.add ~count:4 h 3;
  Histogram.add h 7;
  Alcotest.(check int) "count 3" 5 (Histogram.count h 3);
  Alcotest.(check int) "total" 6 (Histogram.total h);
  Alcotest.(check (list (pair int int))) "bindings sorted" [ (3, 5); (7, 1) ] (Histogram.bindings h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1;
  Histogram.add b 1;
  Histogram.add b 2;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged 1" 2 (Histogram.count m 1);
  Alcotest.(check int) "merged 2" 1 (Histogram.count m 2)

let test_log2_bins () =
  Alcotest.(check int) "log2 1" 0 (Histogram.log2_bin 1);
  Alcotest.(check int) "log2 2" 1 (Histogram.log2_bin 2);
  Alcotest.(check int) "log2 1023" 9 (Histogram.log2_bin 1023);
  Alcotest.(check int) "log2 1024" 10 (Histogram.log2_bin 1024)

let test_rate_quantization () =
  Alcotest.(check int) "rate 0.5 -> bin 1" 1 (Histogram.log2_bin_rate 0.5);
  Alcotest.(check int) "rate 1.0 -> bin 0" 0 (Histogram.log2_bin_rate 1.0);
  Alcotest.(check int) "rate 2^-10" 10 (Histogram.log2_bin_rate (1.0 /. 1024.0));
  Alcotest.(check int) "tiny rates clamp to 10" 10 (Histogram.log2_bin_rate 1e-9);
  check_float "inverse" 0.25 (Histogram.rate_of_log2_bin 2)

let prop_rate_roundtrip =
  QCheck.Test.make ~name:"rate quantization roundtrip within bin" ~count:100
    QCheck.(int_range 0 10)
    (fun b -> Histogram.log2_bin_rate (Histogram.rate_of_log2_bin b) = b)

(* {1 Cluster} *)

let test_cluster_two_groups () =
  let items = [| 0.0; 0.1; 0.2; 10.0; 10.1; 10.2 |] in
  let clusters =
    Cluster.agglomerative ~distance:(fun a b -> Float.abs (a -. b)) ~threshold:1.0 items
  in
  Alcotest.(check int) "two clusters" 2 (List.length clusters);
  List.iter
    (fun c -> Alcotest.(check int) "each of size 3" 3 (List.length c))
    clusters

let test_cluster_k () =
  let items = Array.init 10 float_of_int in
  let clusters =
    Cluster.agglomerative_k ~distance:(fun a b -> Float.abs (a -. b)) ~k:3 items
  in
  Alcotest.(check int) "exactly k" 3 (List.length clusters)

let test_cluster_singletons () =
  let items = [| 0.0; 100.0 |] in
  let clusters =
    Cluster.agglomerative ~distance:(fun a b -> Float.abs (a -. b)) ~threshold:1.0 items
  in
  Alcotest.(check int) "far apart stay separate" 2 (List.length clusters)

let test_cluster_empty () =
  let clusters =
    Cluster.agglomerative ~distance:(fun _ _ -> 0.0) ~threshold:1.0 ([||] : int array)
  in
  Alcotest.(check int) "empty input" 0 (List.length clusters)

let test_cluster_preserves_items () =
  let items = Array.init 12 Fun.id in
  let clusters =
    Cluster.agglomerative
      ~distance:(fun a b -> float_of_int (abs (a - b)))
      ~threshold:2.5 items
  in
  let all = List.concat clusters |> List.sort compare in
  Alcotest.(check (list int)) "no item lost" (Array.to_list items) all

(* {1 Tree_edit} *)

let test_tree_identical () =
  let t = Tree_edit.node "a" [ Tree_edit.leaf "b"; Tree_edit.leaf "c" ] in
  check_float "zero distance" 0.0 (Tree_edit.distance t t)

let test_tree_relabel () =
  let a = Tree_edit.leaf "x" and b = Tree_edit.leaf "y" in
  check_float "single relabel" 1.0 (Tree_edit.distance a b)

let test_tree_insert () =
  let a = Tree_edit.node "r" [ Tree_edit.leaf "x" ] in
  let b = Tree_edit.node "r" [ Tree_edit.leaf "x"; Tree_edit.leaf "y" ] in
  check_float "one insertion" 1.0 (Tree_edit.distance a b)

let test_tree_symmetry () =
  let a = Tree_edit.node "r" [ Tree_edit.leaf "x"; Tree_edit.node "m" [ Tree_edit.leaf "z" ] ] in
  let b = Tree_edit.node "r" [ Tree_edit.leaf "w" ] in
  check_float "symmetric" (Tree_edit.distance a b) (Tree_edit.distance b a)

let test_tree_size_depth () =
  let t = Tree_edit.node 1 [ Tree_edit.leaf 2; Tree_edit.node 3 [ Tree_edit.leaf 4 ] ] in
  Alcotest.(check int) "size" 4 (Tree_edit.size t);
  Alcotest.(check int) "depth" 3 (Tree_edit.depth t)

let test_tree_normalized_bounds () =
  let a = Tree_edit.node "r" (List.init 5 (fun i -> Tree_edit.leaf (string_of_int i))) in
  let b = Tree_edit.leaf "q" in
  let d = Tree_edit.normalized_distance a b in
  Alcotest.(check bool) "normalised in [0,1]" true (d >= 0.0 && d <= 1.0)

(* {1 Jsonx} *)

let test_jsonx_unicode_escapes () =
  (* built with concatenation so the source holds the escape sequences,
     not the decoded characters *)
  let esc hexes = "\"" ^ String.concat "" (List.map (fun h -> "\\u" ^ h) hexes) ^ "\"" in
  let str s = Jsonx.to_str (Jsonx.of_string s) in
  Alcotest.(check string) "ascii" "A" (str (esc [ "0041" ]));
  Alcotest.(check string) "latin-1 e-acute" "\xc3\xa9" (str (esc [ "00e9" ]));
  Alcotest.(check string) "euro sign" "\xe2\x82\xac" (str (esc [ "20ac" ]));
  Alcotest.(check string) "uppercase hex" "\xe2\x82\xac" (str (esc [ "20AC" ]));
  Alcotest.(check string) "surrogate pair (emoji)" "\xf0\x9f\x98\x80"
    (str (esc [ "d83d"; "de00" ]));
  Alcotest.(check string) "control char" "\x01" (str (esc [ "0001" ]));
  Alcotest.(check string) "raw utf-8 passes through" "\xc3\xa9"
    (str "\"\xc3\xa9\"")

let expect_parse_error label s =
  match Jsonx.of_string s with
  | exception Jsonx.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Parse_error on %s" label s

let test_jsonx_bad_escapes () =
  expect_parse_error "lone high surrogate" {|"\ud800"|};
  expect_parse_error "lone low surrogate" {|"\udc00"|};
  expect_parse_error "high then non-surrogate" {|"\ud800A"|};
  expect_parse_error "high then literal" {|"\ud800x"|};
  expect_parse_error "bad hex digit" {|"\u12g4"|};
  expect_parse_error "underscore is not hex" {|"\u1_23"|};
  expect_parse_error "truncated" {|"\u12|}

let test_jsonx_to_int () =
  Alcotest.(check int) "integral float" 3 (Jsonx.to_int (Jsonx.Num 3.0));
  Alcotest.(check int) "negative" (-7) (Jsonx.to_int (Jsonx.Num (-7.0)));
  List.iter
    (fun (label, v) ->
      match Jsonx.to_int (Jsonx.Num v) with
      | exception Jsonx.Parse_error _ -> ()
      | i -> Alcotest.failf "to_int %s: expected Parse_error, got %d" label i)
    [ ("nan", Float.nan); ("inf", Float.infinity); ("-inf", Float.neg_infinity) ]

(* Round-trip generator: arbitrary byte strings (control chars exercise the
   \uXXXX escapes; bytes >= 128 pass through raw) and finite numbers only —
   Jsonx has no representation for nan/inf, which is what to_int guards. *)
let json_gen =
  let open QCheck.Gen in
  let finite_float =
    map (fun f -> if Float.is_finite f then f else 0.5) float
  in
  let scalar =
    oneof
      [
        return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map (fun f -> Jsonx.Num f) finite_float;
        map (fun i -> Jsonx.Num (float_of_int i)) int;
        map (fun s -> Jsonx.Str s) (string_size (int_bound 12));
      ]
  in
  let rec value n =
    if n <= 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Jsonx.List l) (list_size (int_bound 4) (value (n / 2))));
          ( 1,
            map
              (fun l -> Jsonx.Obj l)
              (list_size (int_bound 4) (pair (string_size (int_bound 8)) (value (n / 2)))) );
        ]
  in
  sized (fun n -> value (min n 8))

let prop_jsonx_roundtrip =
  QCheck.Test.make ~name:"Jsonx to_string |> of_string = id" ~count:500
    (QCheck.make json_gen ~print:(fun v -> Jsonx.to_string v))
    (fun v ->
      Jsonx.of_string (Jsonx.to_string v) = v
      && Jsonx.of_string (Jsonx.to_string ~pretty:true v) = v)

(* {1 Table} *)

let test_table_render () =
  let out = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "contains rule" true (String.contains out '-');
  Alcotest.(check bool) "contains cells" true
    (String.length out > 0
    && String.index_opt out '3' <> None)

let test_table_fmt () =
  Alcotest.(check string) "zero" "0" (Table.fmt_float 0.0);
  Alcotest.(check string) "pct" "12.3%" (Table.fmt_pct 12.34)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "golden draws" `Quick test_rng_golden;
          Alcotest.test_case "range" `Quick test_rng_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          qt prop_int_bounds;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "discrete weights" `Quick test_discrete_weights;
          Alcotest.test_case "discrete support" `Quick test_discrete_support_normalised;
          Alcotest.test_case "discrete empty" `Quick test_discrete_rejects_empty;
          Alcotest.test_case "empirical" `Quick test_empirical;
          Alcotest.test_case "pareto" `Quick test_pareto_heavy_tail;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "interpolation" `Quick test_stats_percentile_interpolation;
          Alcotest.test_case "add after sort" `Quick test_stats_add_after_sort;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "mape" `Quick test_stats_mape;
          Alcotest.test_case "mape zero" `Quick test_stats_mape_skips_zero;
          qt prop_percentile_monotonic;
          qt prop_mean_between_min_max;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "log2 bins" `Quick test_log2_bins;
          Alcotest.test_case "rate quantization" `Quick test_rate_quantization;
          qt prop_rate_roundtrip;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "two groups" `Quick test_cluster_two_groups;
          Alcotest.test_case "k clusters" `Quick test_cluster_k;
          Alcotest.test_case "singletons" `Quick test_cluster_singletons;
          Alcotest.test_case "empty" `Quick test_cluster_empty;
          Alcotest.test_case "preserves items" `Quick test_cluster_preserves_items;
        ] );
      ( "tree_edit",
        [
          Alcotest.test_case "identical" `Quick test_tree_identical;
          Alcotest.test_case "relabel" `Quick test_tree_relabel;
          Alcotest.test_case "insert" `Quick test_tree_insert;
          Alcotest.test_case "symmetry" `Quick test_tree_symmetry;
          Alcotest.test_case "size/depth" `Quick test_tree_size_depth;
          Alcotest.test_case "normalized bounds" `Quick test_tree_normalized_bounds;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "unicode escapes" `Quick test_jsonx_unicode_escapes;
          Alcotest.test_case "bad escapes" `Quick test_jsonx_bad_escapes;
          Alcotest.test_case "to_int non-finite" `Quick test_jsonx_to_int;
          qt prop_jsonx_roundtrip;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_fmt;
        ] );
    ]
