(* Tests for the network and storage device models. *)
open Ditto_sim
open Ditto_net
module Disk = Ditto_storage.Disk
module Platform = Ditto_uarch.Platform

let check_close msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tolerance actual

(* {1 Disk} *)

let test_disk_service_times () =
  let engine = Engine.create () in
  let ssd = Disk.create engine Platform.Ssd and hdd = Disk.create engine Platform.Hdd in
  Alcotest.(check bool) "HDD random >> SSD random" true
    (Disk.service_time hdd ~bytes:4096 ~random:true
    > 10.0 *. Disk.service_time ssd ~bytes:4096 ~random:true);
  Alcotest.(check bool) "sequential cheaper than random" true
    (Disk.service_time hdd ~bytes:4096 ~random:false
    < Disk.service_time hdd ~bytes:4096 ~random:true);
  Alcotest.(check bool) "bigger transfers cost more" true
    (Disk.service_time ssd ~bytes:(1 lsl 20) ~random:false
    > Disk.service_time ssd ~bytes:4096 ~random:false)

let test_disk_hdd_queueing () =
  (* One actuator: two concurrent random reads serialise. *)
  let engine = Engine.create () in
  let hdd = Disk.create engine Platform.Hdd in
  let finish = ref [] in
  for _ = 1 to 2 do
    Engine.spawn engine (fun () ->
        Disk.read hdd ~bytes:4096 ~random:true;
        finish := Engine.time () :: !finish)
  done;
  Engine.run engine;
  let t1 = Disk.service_time hdd ~bytes:4096 ~random:true in
  let latest = List.fold_left Float.max 0.0 !finish in
  check_close "second waits for first" 1e-6 (2.0 *. t1) latest

let test_disk_ssd_parallel_channels () =
  let engine = Engine.create () in
  let ssd = Disk.create engine Platform.Ssd in
  let finish = ref [] in
  for _ = 1 to 4 do
    Engine.spawn engine (fun () ->
        Disk.read ssd ~bytes:4096 ~random:true;
        finish := Engine.time () :: !finish)
  done;
  Engine.run engine;
  let t1 = Disk.service_time ssd ~bytes:4096 ~random:true in
  List.iter (fun t -> check_close "parallel channels" 1e-6 t1 t) !finish

let test_disk_stats () =
  let engine = Engine.create () in
  let d = Disk.create engine Platform.Ssd in
  Engine.spawn engine (fun () ->
      Disk.read d ~bytes:1000 ~random:false;
      Disk.write d ~bytes:500);
  Engine.run engine;
  Alcotest.(check int) "read bytes" 1000 (Disk.bytes_read d);
  Alcotest.(check int) "written bytes" 500 (Disk.bytes_written d);
  Disk.reset_stats d;
  Alcotest.(check int) "reset" 0 (Disk.bytes_read d)

(* {1 NIC} *)

let test_nic_serialisation_time () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~gbps:1.0 in
  let t = ref 0.0 in
  Engine.spawn engine (fun () ->
      Nic.transmit nic ~bytes:125_000;
      (* 1ms at 1Gbps *)
      t := Engine.time ());
  Engine.run engine;
  Alcotest.(check bool) "roughly 1ms (plus framing)" true (!t >= 1e-3 && !t < 1.2e-3)

let test_nic_queueing () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~gbps:1.0 in
  let finish = ref [] in
  for _ = 1 to 3 do
    Engine.spawn engine (fun () ->
        Nic.transmit nic ~bytes:125_000;
        finish := Engine.time () :: !finish)
  done;
  Engine.run engine;
  let latest = List.fold_left Float.max 0.0 !finish in
  Alcotest.(check bool) "three messages serialise" true (latest >= 3e-3)

let test_nic_stats () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~gbps:10.0 in
  Engine.spawn engine (fun () -> Nic.transmit nic ~bytes:100);
  Engine.run engine;
  Nic.note_received nic ~bytes:50;
  Alcotest.(check int) "sent" 100 (Nic.bytes_sent nic);
  Alcotest.(check int) "received" 50 (Nic.bytes_received nic);
  Alcotest.(check (float 1e-9)) "gbps" 10.0 (Nic.gbps nic)

(* {1 Socket} *)

let make_pair engine =
  let a_nic = Nic.create engine ~gbps:10.0 and b_nic = Nic.create engine ~gbps:10.0 in
  Socket.pair engine ~a_nic ~b_nic ~latency:1e-4

let test_socket_delivery () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let got = ref 0 and at = ref 0.0 in
  Engine.spawn engine (fun () ->
      got := Socket.recv b;
      at := Engine.time ());
  Engine.spawn engine (fun () -> Socket.send a ~bytes:1500);
  Engine.run engine;
  Alcotest.(check int) "size delivered" 1500 !got;
  Alcotest.(check bool) "after link latency" true (!at >= 1e-4)

let test_socket_bidirectional () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let reply = ref 0 in
  Engine.spawn engine (fun () ->
      let req = Socket.recv b in
      Socket.send b ~bytes:(req * 2));
  Engine.spawn engine (fun () ->
      Socket.send a ~bytes:21;
      reply := Socket.recv a);
  Engine.run engine;
  Alcotest.(check int) "request/response" 42 !reply

let test_socket_recv_timed () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let arrived = ref 0.0 in
  Engine.spawn engine (fun () ->
      let _, t = Socket.recv_timed b in
      arrived := t);
  Engine.spawn engine (fun () ->
      Engine.wait 0.5;
      Socket.send a ~bytes:10);
  Engine.run engine;
  Alcotest.(check bool) "delivery timestamp carried" true (!arrived >= 0.5)

let test_socket_try_recv_and_pending () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  Engine.spawn engine (fun () ->
      Socket.send a ~bytes:7;
      Engine.wait 1.0;
      Alcotest.(check int) "pending" 1 (Socket.pending b);
      Alcotest.(check (option int)) "try_recv" (Some 7) (Socket.try_recv b);
      Alcotest.(check (option int)) "empty" None (Socket.try_recv b));
  Engine.run engine

(* {1 Epoll} *)

let test_epoll_ready_and_wait () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let ep = Socket.Epoll.create () in
  Socket.Epoll.add ep b;
  let woke = ref [] in
  Engine.spawn engine (fun () -> woke := Socket.Epoll.wait ep);
  Engine.spawn engine (fun () -> Socket.send a ~bytes:5);
  Engine.run engine;
  Alcotest.(check int) "one ready endpoint" 1 (List.length !woke)

let test_epoll_timeout () =
  let engine = Engine.create () in
  let _, b = make_pair engine in
  let ep = Socket.Epoll.create () in
  Socket.Epoll.add ep b;
  let result = ref [ b ] in
  Engine.spawn engine (fun () -> result := Socket.Epoll.wait ~timeout:0.01 ep);
  Engine.run engine;
  Alcotest.(check int) "timeout returns empty" 0 (List.length !result)

let test_epoll_zero_timeout_polls () =
  (* timeout:0. is a poll: with data queued it returns the ready endpoints,
     and empty it returns [] instead of blocking. The empty-poll path must
     perform no engine effect — calling it outside any process context
     (below, after Engine.run has finished) would crash if it suspended. *)
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let ep = Socket.Epoll.create () in
  Socket.Epoll.add ep b;
  Engine.spawn engine (fun () ->
      Alcotest.(check int) "empty poll returns immediately" 0
        (List.length (Socket.Epoll.wait ~timeout:0.0 ep));
      Alcotest.(check (float 1e-12)) "no virtual time consumed" 0.0 (Engine.time ());
      Socket.send a ~bytes:3;
      Engine.wait 1.0;
      Alcotest.(check int) "queued data polls ready" 1
        (List.length (Socket.Epoll.wait ~timeout:0.0 ep)));
  Engine.run engine;
  Alcotest.(check int) "callable outside process context" 1
    (List.length (Socket.Epoll.wait ~timeout:0.0 ep))

let test_epoll_add_while_waiting () =
  (* Regression: a connection attached after the worker parked in wait must
     still wake it (without this, first requests stall a full timeout). *)
  let engine = Engine.create () in
  let ep = Socket.Epoll.create () in
  let woke_at = ref infinity in
  Engine.spawn engine (fun () ->
      ignore (Socket.Epoll.wait ~timeout:10.0 ep);
      woke_at := Engine.time ());
  Engine.spawn engine (fun () ->
      Engine.wait 0.1;
      let a, b = make_pair engine in
      Socket.Epoll.add ep b;
      Socket.send a ~bytes:9);
  Engine.run engine;
  Alcotest.(check bool) "woken promptly, not at timeout" true (!woke_at < 1.0)

let test_epoll_multiple_endpoints () =
  let engine = Engine.create () in
  let pairs = List.init 4 (fun _ -> make_pair engine) in
  let ep = Socket.Epoll.create () in
  List.iter (fun (_, b) -> Socket.Epoll.add ep b) pairs;
  let ready_count = ref 0 in
  Engine.spawn engine (fun () ->
      let ready = Socket.Epoll.wait ep in
      ready_count := List.length ready);
  Engine.spawn engine (fun () ->
      let a1, _ = List.nth pairs 1 and a3, _ = List.nth pairs 3 in
      Socket.send a1 ~bytes:1;
      Socket.send a3 ~bytes:1);
  Engine.run engine;
  Alcotest.(check bool) "at least one ready" true (!ready_count >= 1)

(* Wake-order pin: two epolls share one engine, an endpoint joins while its worker is
   parked, a timed wait expires before traffic arrives, an endpoint that is
   already readable joins a parked epoll, and a burst lands on several
   endpoints at once. The log holds every wake time (hex, exact), the order
   the ready lists come back in, and the engine's event count, so any
   change to who is woken, when, or through how many events shows up. *)
let epoll_wake_log () =
  let engine = Engine.create () in
  let named = ref [] in
  let conn name =
    let a, b = make_pair engine in
    named := (b, name) :: !named;
    (a, b)
  in
  let log = ref [] in
  let worker name ep ~timeout ~rounds =
    Engine.spawn engine (fun () ->
        for _ = 1 to rounds do
          let ready = Socket.Epoll.wait ~timeout ep in
          let labels = List.map (fun b -> List.assq b !named) ready in
          let drained =
            List.concat_map
              (fun b ->
                let rec go acc =
                  match Socket.try_recv b with Some n -> go (n :: acc) | None -> List.rev acc
                in
                go [])
              ready
          in
          log :=
            Printf.sprintf "%s %h [%s] %s" name (Engine.time ()) (String.concat "," labels)
              (String.concat "," (List.map string_of_int drained))
            :: !log
        done)
  in
  let e1 = Socket.Epoll.create () and e2 = Socket.Epoll.create () in
  let a1, b1 = conn "b1" and a2, b2 = conn "b2" and c1a, c1 = conn "c1" in
  Socket.Epoll.add e1 b1;
  Socket.Epoll.add e1 b2;
  Socket.Epoll.add e2 c1;
  worker "w1" e1 ~timeout:0.05 ~rounds:7;
  worker "w2" e2 ~timeout:0.03 ~rounds:8;
  Engine.spawn engine (fun () ->
      Engine.wait 0.01;
      Socket.send a1 ~bytes:11;
      Engine.wait 0.01;
      (* w1 is parked again: attach a fresh connection, then use it *)
      let a3, b3 = conn "b3" in
      Socket.Epoll.add e1 b3;
      Engine.wait 0.005;
      Socket.send a3 ~bytes:33;
      (* w2's 30 ms waits have expired at least twice by now *)
      Engine.wait 0.075;
      Socket.send c1a ~bytes:101;
      (* an endpoint that is readable before it joins wakes at once *)
      let d_a, d = conn "d" in
      Socket.send d_a ~bytes:44;
      Engine.wait 0.01;
      Socket.Epoll.add e2 d;
      (* the burst: equal-sized sends land on every endpoint of both
         epolls in one instant *)
      Engine.wait 0.01;
      List.iter
        (fun a -> Engine.fork (fun () -> Socket.send a ~bytes:5))
        [ a2; a1; a3; c1a; d_a ]);
  Engine.run engine;
  List.rev !log @ [ Printf.sprintf "events=%d" (Engine.events_processed engine) ]

let epoll_wake_expected =
  [
    "w1 0x1.4af589bee1fbdp-7 [b1] 11";
    "w1 0x1.9b3db394c26f5p-6 [b3] 33";
    "w2 0x1.eb851eb851eb8p-6 [] ";
    "w2 0x1.eb851eb851eb8p-5 [] ";
    "w1 0x1.339c39b1fd68ap-4 [] ";
    "w2 0x1.70a3d70a3d70ap-4 [] ";
    "w2 0x1.9a02c68904d9bp-4 [c1] 101";
    "w2 0x1.c28fc7bfb9ed3p-4 [d] 44";
    "w1 0x1.ebee77adbbae7p-4 [b3,b2,b1] 5,5,5";
    "w2 0x1.ebee77adbbae7p-4 [d,c1] 5,5";
    "w2 0x1.3367dfade814ap-3 [] ";
    "w1 0x1.5c5da23d443dap-3 [] ";
    "w2 0x1.70d88384f2521p-3 [] ";
    "w1 0x1.c2c408a3aaa4p-3 [] ";
    "w1 0x1.1495378508853p-2 [] ";
    (* dispatched events only: the six timed waits that traffic beat are
       withdrawn, never dispatched *)
    "events=62";
  ]

let test_epoll_wake_order_pin () =
  Alcotest.(check (list string)) "wake order matches the recorded pin" epoll_wake_expected
    (epoll_wake_log ())

(* A tier's [Socket.Depth] counter must equal the summed [pending] of the
   endpoints attached to it after every step of any interleaving of sends,
   the three takes, epoll registration and attachment (some endpoints are
   attached only once traffic is already queued on them), with an epoll
   worker draining concurrently. *)
type depth_op = Send | Try_recv | Recv | Recv_timeout | Attach | Epoll_add | Pause

let depth_ops = [| Send; Send; Try_recv; Recv; Recv_timeout; Attach; Epoll_add; Pause |]

let depth_counter_holds ops =
  let engine = Engine.create () in
  let pairs = Array.init 4 (fun _ -> make_pair engine) in
  let depth = Socket.Depth.create () in
  let attached = Array.make 4 false and polled = Array.make 4 false in
  let ep = Socket.Epoll.create () in
  let ok = ref true and steps = ref 0 in
  let check () =
    let sum = ref 0 in
    Array.iteri (fun i (_, b) -> if attached.(i) then sum := !sum + Socket.pending b) pairs;
    if Socket.Depth.get depth <> !sum then ok := false
  in
  Engine.spawn engine (fun () ->
      for _ = 1 to 40 do
        (match Socket.Epoll.wait ~timeout:2e-4 ep with
        | [] -> ()
        | b :: _ -> ignore (Socket.try_recv_msg b));
        check ()
      done);
  Engine.spawn engine (fun () ->
      List.iter
        (fun (k, i) ->
          let a, b = pairs.(i) in
          (match depth_ops.(k) with
          | Send -> Socket.send a ~bytes:(1 + i)
          | Try_recv -> ignore (Socket.try_recv_msg b)
          | Recv when polled.(i) ->
              (* the epoll worker may take the message first; never block *)
              ignore (Socket.try_recv_msg b)
          | Recv ->
              if Socket.pending b = 0 then Socket.send a ~bytes:1;
              ignore (Socket.recv_msg b)
          | Recv_timeout -> ignore (Socket.recv_msg_timeout b ~timeout:1.5e-4)
          | Attach ->
              Socket.Depth.attach depth b;
              attached.(i) <- true
          | Epoll_add ->
              Socket.Epoll.add ep b;
              polled.(i) <- true
          | Pause -> Engine.wait 5e-5);
          check ();
          incr steps)
        ops);
  Engine.run engine;
  check ();
  !ok && !steps = List.length ops

let prop_depth_counter =
  QCheck.Test.make ~name:"depth counter = sum of attached pending" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 80)
        (pair (int_range 0 (Array.length depth_ops - 1)) (int_range 0 3)))
    depth_counter_holds

let () =
  Alcotest.run "net_storage"
    [
      ( "disk",
        [
          Alcotest.test_case "service times" `Quick test_disk_service_times;
          Alcotest.test_case "hdd queueing" `Quick test_disk_hdd_queueing;
          Alcotest.test_case "ssd channels" `Quick test_disk_ssd_parallel_channels;
          Alcotest.test_case "stats" `Quick test_disk_stats;
        ] );
      ( "nic",
        [
          Alcotest.test_case "serialisation" `Quick test_nic_serialisation_time;
          Alcotest.test_case "queueing" `Quick test_nic_queueing;
          Alcotest.test_case "stats" `Quick test_nic_stats;
        ] );
      ( "socket",
        [
          Alcotest.test_case "delivery" `Quick test_socket_delivery;
          Alcotest.test_case "bidirectional" `Quick test_socket_bidirectional;
          Alcotest.test_case "recv timed" `Quick test_socket_recv_timed;
          Alcotest.test_case "try_recv/pending" `Quick test_socket_try_recv_and_pending;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7331 |]) prop_depth_counter;
        ] );
      ( "epoll",
        [
          Alcotest.test_case "ready and wait" `Quick test_epoll_ready_and_wait;
          Alcotest.test_case "timeout" `Quick test_epoll_timeout;
          Alcotest.test_case "zero timeout polls" `Quick test_epoll_zero_timeout_polls;
          Alcotest.test_case "add while waiting" `Quick test_epoll_add_while_waiting;
          Alcotest.test_case "multiple endpoints" `Quick test_epoll_multiple_endpoints;
          Alcotest.test_case "wake-order pin" `Quick test_epoll_wake_order_pin;
        ] );
    ]
