open Ditto_sim
module Rng = Ditto_util.Rng

type tier = {
  mutable down : int;  (* nesting count of active crash windows *)
  mutable slow : float;  (* product of active slowdown factors *)
  mutable add_latency : float;  (* summed active link latencies *)
  mutable drop : float;  (* combined drop probability of active link events *)
  mutable drop_factors : float list;  (* per-event (1 - drop) survival terms *)
  mutable partitioned : int;
  mutable drops : int;  (* messages dropped with this tier as source *)
}

type t = {
  plan : Plan.t;
  engine : Engine.t;
  rng : Rng.t;
  tiers : (string, tier) Hashtbl.t;
}

let create ~engine ~seed plan =
  { plan; engine; rng = Rng.create seed; tiers = Hashtbl.create 16 }

let tier t name =
  match Hashtbl.find_opt t.tiers name with
  | Some s -> s
  | None ->
      let s =
        {
          down = 0;
          slow = 1.0;
          add_latency = 0.0;
          drop = 0.0;
          drop_factors = [];
          partitioned = 0;
          drops = 0;
        }
      in
      Hashtbl.add t.tiers name s;
      s

(* Recompute the combined drop probability from the active survival terms
   rather than dividing factors back out — repeated float division would let
   "no active event" drift away from exactly 0. *)
let refresh_drop s =
  s.drop <- 1.0 -. List.fold_left ( *. ) 1.0 s.drop_factors

let remove_one x xs =
  let rec go = function [] -> [] | y :: ys -> if y = x then ys else y :: go ys in
  go xs

let arm t ~at =
  List.iter
    (fun (e : Plan.event) ->
      let s = tier t e.tier in
      let start = at +. e.at in
      match e.kind with
      | Plan.Crash { down_for } ->
          Engine.schedule t.engine start (fun () -> s.down <- s.down + 1);
          Engine.schedule t.engine (start +. down_for) (fun () -> s.down <- s.down - 1)
      | Plan.Slowdown { factor; lasts } ->
          Engine.schedule t.engine start (fun () -> s.slow <- s.slow *. factor);
          Engine.schedule t.engine (start +. lasts) (fun () -> s.slow <- s.slow /. factor)
      | Plan.Link { add_latency; drop; lasts } ->
          let survival = 1.0 -. drop in
          Engine.schedule t.engine start (fun () ->
              s.add_latency <- s.add_latency +. add_latency;
              s.drop_factors <- survival :: s.drop_factors;
              refresh_drop s);
          Engine.schedule t.engine (start +. lasts) (fun () ->
              s.add_latency <- s.add_latency -. add_latency;
              s.drop_factors <- remove_one survival s.drop_factors;
              refresh_drop s)
      | Plan.Partition { lasts } ->
          Engine.schedule t.engine start (fun () -> s.partitioned <- s.partitioned + 1);
          Engine.schedule t.engine (start +. lasts) (fun () ->
              s.partitioned <- s.partitioned - 1))
    t.plan.Plan.events

let tier_up s = s.down = 0
let slow_factor s = s.slow

let disruptor t ~src ~dst =
  let a = tier t src and b = tier t dst in
  fun ~bytes:_ ->
    if a.partitioned > 0 || b.partitioned > 0 then begin
      a.drops <- a.drops + 1;
      Ditto_net.Socket.Drop
    end
    else
      let p = 1.0 -. ((1.0 -. a.drop) *. (1.0 -. b.drop)) in
      if p > 0.0 && Rng.float t.rng 1.0 < p then begin
        a.drops <- a.drops + 1;
        Ditto_net.Socket.Drop
      end
      else
        let d = a.add_latency +. b.add_latency in
        if d > 0.0 then Ditto_net.Socket.Delay d else Ditto_net.Socket.Deliver

let drops t name = (tier t name).drops
