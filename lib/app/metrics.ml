open Ditto_uarch

type faults = {
  timeouts : int;
  retries : int;
  shed : int;
  failures : int;
  breaker_transitions : int;
  link_drops : int;
}

let no_faults =
  { timeouts = 0; retries = 0; shed = 0; failures = 0; breaker_transitions = 0; link_drops = 0 }

type t = {
  label : string;
  qps : float;
  ipc : float;
  branch_miss_rate : float;
  l1i_miss_rate : float;
  l1d_miss_rate : float;
  l2_miss_rate : float;
  llc_miss_rate : float;
  net_mbps : float;
  disk_mbps : float;
  lat_avg : float;
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  topdown : Counters.topdown;
  counters : Counters.t;
  faults : faults;
}

let radar_values t ~include_disk =
  let base =
    [
      ("IPC", t.ipc);
      ("Branch", t.branch_miss_rate);
      ("L1i", t.l1i_miss_rate);
      ("L1d", t.l1d_miss_rate);
      ("L2", t.l2_miss_rate);
      ("LLC", t.llc_miss_rate);
      ("Net BW", t.net_mbps);
    ]
  in
  if include_disk then base @ [ ("Disk BW", t.disk_mbps) ] else base

let error_pct ~actual ~synthetic =
  let include_disk = actual.disk_mbps > 0.0 in
  let a = radar_values actual ~include_disk and s = radar_values synthetic ~include_disk in
  List.filter_map
    (fun ((axis, av), (_, sv)) ->
      if av = 0.0 then None else Some (axis, 100.0 *. Float.abs (sv -. av) /. av))
    (List.combine a s)

let latency_error_pct ~actual ~synthetic =
  List.filter_map
    (fun (axis, av, sv) ->
      if av = 0.0 then None else Some (axis, 100.0 *. Float.abs (sv -. av) /. av))
    [
      ("avg", actual.lat_avg, synthetic.lat_avg);
      ("p95", actual.lat_p95, synthetic.lat_p95);
      ("p99", actual.lat_p99, synthetic.lat_p99);
    ]

let header =
  [ "run"; "qps"; "IPC"; "brMiss"; "L1i"; "L1d"; "L2"; "LLC"; "net MB/s"; "dsk MB/s";
    "avg ms"; "p95 ms"; "p99 ms" ]

let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)
let ms x = Printf.sprintf "%.3f" (1e3 *. x)

let pp_row t =
  [
    t.label;
    Printf.sprintf "%.0f" t.qps;
    Printf.sprintf "%.3f" t.ipc;
    pct t.branch_miss_rate;
    pct t.l1i_miss_rate;
    pct t.l1d_miss_rate;
    pct t.l2_miss_rate;
    pct t.llc_miss_rate;
    Printf.sprintf "%.1f" t.net_mbps;
    Printf.sprintf "%.1f" t.disk_mbps;
    ms t.lat_avg;
    ms t.lat_p95;
    ms t.lat_p99;
  ]
