open Ditto_sim

type msg = { bytes : int; err : bool; arrived : float; meta : int }
type verdict = Deliver | Delay of float | Drop

(* The counter behind {!Depth}: every endpoint reports its inbox length to
   exactly one, its own until it is attached to a shared one. *)
type depth = { mutable queued : int }

type endpoint = {
  engine : Engine.t;
  inbox : msg Queue.t;
  mutable watchers : unit Engine.waker list;
  mutable depth : depth;
  nic : Nic.t;
  latency : float;
  mutable peer : endpoint option;
  mutable disruptor : (bytes:int -> verdict) option;
}

let make engine nic latency =
  {
    engine;
    inbox = Queue.create ();
    watchers = [];
    depth = { queued = 0 };
    nic;
    latency;
    peer = None;
    disruptor = None;
  }

let pair engine ~a_nic ~b_nic ~latency =
  let a = make engine a_nic latency and b = make engine b_nic latency in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

let set_disruptor ep f = ep.disruptor <- f

let notify_watchers ep =
  let ws = ep.watchers in
  ep.watchers <- [];
  List.iter (fun w -> Engine.wake w ()) ws

let send ?(err = false) ?(meta = 0) ep ~bytes =
  match ep.peer with
  | None -> invalid_arg "Socket.send: unconnected"
  | Some peer -> (
      Nic.transmit ep.nic ~bytes;
      let verdict = match ep.disruptor with None -> Deliver | Some f -> f ~bytes in
      match verdict with
      | Drop -> ()
      | Deliver | Delay _ ->
          let extra = match verdict with Delay d -> d | _ -> 0.0 in
          let deliver_at = Engine.time () +. ep.latency +. extra in
          Engine.schedule ep.engine deliver_at (fun () ->
              Nic.note_received peer.nic ~bytes;
              Queue.push { bytes; err; arrived = deliver_at; meta } peer.inbox;
              peer.depth.queued <- peer.depth.queued + 1;
              notify_watchers peer))

let try_recv_msg ep =
  match Queue.take_opt ep.inbox with
  | Some _ as m ->
      ep.depth.queued <- ep.depth.queued - 1;
      m
  | None -> None

let rec recv_msg ep =
  match try_recv_msg ep with
  | Some msg -> msg
  | None ->
      Engine.suspend (fun w -> ep.watchers <- w :: ep.watchers);
      recv_msg ep

let recv_timed ep =
  let m = recv_msg ep in
  (m.bytes, m.arrived)

let recv ep = (recv_msg ep).bytes
let try_recv ep = Option.map (fun m -> m.bytes) (try_recv_msg ep)

let recv_msg_timeout ep ~timeout =
  let deadline = Engine.time () +. timeout in
  let rec go () =
    match try_recv_msg ep with
    | Some msg -> Some msg
    | None ->
        let left = deadline -. Engine.time () in
        if left <= 0.0 then None
        else (
          match Engine.suspend_timeout left (fun w -> ep.watchers <- w :: ep.watchers) with
          | None -> None
          | Some () -> go ())
  in
  go ()

let pending ep = Queue.length ep.inbox

module Depth = struct
  type t = depth

  let create () = { queued = 0 }

  (* Move the endpoint's queued messages from whatever counter it reported
     to before onto [t], so re-attaching never double-counts. *)
  let attach t ep =
    let n = Queue.length ep.inbox in
    ep.depth.queued <- ep.depth.queued - n;
    t.queued <- t.queued + n;
    ep.depth <- t

  let get t = t.queued
end

module Epoll = struct
  type t = { mutable endpoints : endpoint list; mutable waiters : unit Engine.waker list }

  let create () = { endpoints = []; waiters = [] }

  (* A connection can be added while a worker is already parked in [wait];
     the pending waiters must hear about traffic on the new endpoint (or be
     woken immediately if it is already readable). *)
  let add t ep =
    t.endpoints <- ep :: t.endpoints;
    let live = List.filter (fun w -> not (Engine.is_woken w)) t.waiters in
    t.waiters <- live;
    if Queue.is_empty ep.inbox then ep.watchers <- live @ ep.watchers
    else List.iter (fun w -> Engine.wake w ()) live

  let ready t = List.filter (fun ep -> not (Queue.is_empty ep.inbox)) t.endpoints

  let register t w =
    t.waiters <- w :: List.filter (fun w' -> not (Engine.is_woken w')) t.waiters;
    List.iter (fun ep -> ep.watchers <- w :: ep.watchers) t.endpoints

  let rec wait ?timeout t =
    match ready t with
    | _ :: _ as rs -> rs
    | [] -> (
        match timeout with
        | None ->
            Engine.suspend (fun w -> register t w);
            wait t
        (* timeout:0. is a poll: report emptiness without suspending (no
           engine effect is performed, so this is callable anywhere). *)
        | Some d when d <= 0.0 -> []
        | Some d -> (
            match Engine.suspend_timeout d (fun w -> register t w) with
            | None -> []
            | Some () -> wait ?timeout t))
end
