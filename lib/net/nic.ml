open Ditto_sim

type t = {
  gbps : float;
  tx : Engine.Resource.r;
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

let create _engine ~gbps =
  { gbps; tx = Engine.Resource.create 1; bytes_sent = 0; bytes_received = 0 }

(* Ethernet framing overhead: preamble+header+FCS+IFG ~ 38B per 1500B MTU. *)
let wire_time t bytes =
  let frames = max 1 ((bytes + 1459) / 1460) in
  let wire_bytes = bytes + (frames * 78) in
  float_of_int wire_bytes *. 8.0 /. (t.gbps *. 1e9)

let transmit t ~bytes =
  t.bytes_sent <- t.bytes_sent + bytes;
  Engine.Resource.with_resource t.tx (fun () -> Engine.wait (wire_time t bytes))

let note_received t ~bytes = t.bytes_received <- t.bytes_received + bytes
let bytes_sent t = t.bytes_sent
let bytes_received t = t.bytes_received

let gbps t = t.gbps
