type t = { gen_name : string; open_loop : bool; connections : int }

let mutated = { gen_name = "mutated"; open_loop = true; connections = 96 }
let tcpkali = { gen_name = "tcpkali"; open_loop = true; connections = 48 }
let ycsb = { gen_name = "ycsb"; open_loop = false; connections = 32 }
let wrk2_open = { gen_name = "wrk2-open"; open_loop = true; connections = 32 }

let to_load t ~qps ?(duration = 2.0) ?profile () =
  Ditto_app.Service.load ~connections:t.connections ~open_loop:t.open_loop ~duration ?profile ~qps
    ()

module Keys = struct
  type sampler = Uniform | Zipf of Ditto_util.Dist.zipf

  type space = { records : int; record_bytes : int; sampler : sampler }

  let uniform ~records ~record_bytes = { records; record_bytes; sampler = Uniform }

  let zipf ?(s = 0.99) ~records ~record_bytes () =
    { records; record_bytes; sampler = Zipf (Ditto_util.Dist.zipf ~n:records ~s) }

  let sample_offset t rng =
    let idx =
      match t.sampler with
      | Uniform -> Ditto_util.Rng.int rng t.records
      | Zipf z -> Ditto_util.Dist.zipf_sample z rng
    in
    idx * t.record_bytes

  let record_bytes t = t.record_bytes
end
