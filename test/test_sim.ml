(* Tests for the discrete-event engine: virtual time, process semantics,
   synchronisation primitives. *)
open Ditto_sim

let check_float = Alcotest.(check (float 1e-9))

let run_collect f =
  let engine = Engine.create () in
  let log = ref [] in
  let emit tag = log := (tag, Engine.now engine) :: !log in
  f engine emit;
  Engine.run engine;
  List.rev !log

let test_time_advances () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () ->
            emit "start";
            Engine.wait 1.5;
            emit "mid";
            Engine.wait 0.5;
            emit "end"))
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "timeline"
    [ ("start", 0.0); ("mid", 1.5); ("end", 2.0) ]
    log

let test_fifo_same_time () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () -> emit "a");
        Engine.spawn engine (fun () -> emit "b");
        Engine.spawn engine (fun () -> emit "c"))
  in
  Alcotest.(check (list string)) "FIFO order" [ "a"; "b"; "c" ] (List.map fst log)

let test_interleaving () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () ->
            Engine.wait 1.0;
            emit "slow");
        Engine.spawn engine (fun () ->
            Engine.wait 0.25;
            emit "fast"))
  in
  Alcotest.(check (list string)) "ordered by time" [ "fast"; "slow" ] (List.map fst log)

let test_spawn_at () =
  let log =
    run_collect (fun engine emit -> Engine.spawn engine ~at:3.0 (fun () -> emit "later"))
  in
  check_float "starts at 3" 3.0 (snd (List.hd log))

let test_run_until () =
  let engine = Engine.create () in
  let fired = ref false in
  Engine.spawn engine (fun () ->
      Engine.wait 10.0;
      fired := true);
  Engine.run ~until:5.0 engine;
  Alcotest.(check bool) "event beyond limit dropped" false !fired;
  check_float "clock stopped at limit" 5.0 (Engine.now engine)

let test_negative_wait_clamped () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () ->
            Engine.wait (-5.0);
            emit "now"))
  in
  check_float "negative wait is zero" 0.0 (snd (List.hd log))

let test_fork () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () ->
            Engine.fork (fun () ->
                Engine.wait 1.0;
                emit "child");
            emit "parent"))
  in
  Alcotest.(check (list string)) "parent continues first" [ "parent"; "child" ]
    (List.map fst log)

let test_suspend_wake () =
  let engine = Engine.create () in
  let waker = ref None in
  let got = ref 0 in
  Engine.spawn engine (fun () -> got := Engine.suspend (fun w -> waker := Some w));
  Engine.spawn engine (fun () ->
      Engine.wait 2.0;
      match !waker with Some w -> Engine.wake w 99 | None -> Alcotest.fail "no waker");
  Engine.run engine;
  Alcotest.(check int) "woken with value" 99 !got

let test_double_wake_ignored () =
  let engine = Engine.create () in
  let waker = ref None in
  let count = ref 0 in
  Engine.spawn engine (fun () ->
      let v = Engine.suspend (fun w -> waker := Some w) in
      count := !count + v);
  Engine.spawn engine (fun () ->
      let w = Option.get !waker in
      Engine.wake w 1;
      Engine.wake w 100);
  Engine.run engine;
  Alcotest.(check int) "only first wake delivers" 1 !count

let test_suspend_timeout_fires () =
  let engine = Engine.create () in
  let result = ref (Some 0) in
  Engine.spawn engine (fun () -> result := Engine.suspend_timeout 1.0 (fun _ -> ()));
  Engine.run engine;
  Alcotest.(check bool) "timed out" true (!result = None)

let test_suspend_timeout_wakes () =
  let engine = Engine.create () in
  let result = ref None in
  let waker = ref None in
  Engine.spawn engine (fun () -> result := Engine.suspend_timeout 10.0 (fun w -> waker := Some w));
  Engine.spawn engine (fun () ->
      Engine.wait 0.5;
      Engine.wake (Option.get !waker) 7);
  Engine.run engine;
  Alcotest.(check bool) "woken before timeout" true (!result = Some 7)

let test_ivar () =
  let engine = Engine.create () in
  let iv = Engine.Ivar.create () in
  let seen = ref [] in
  for i = 1 to 3 do
    Engine.spawn engine (fun () ->
        (* bind first: [::] must not snapshot [!seen] before the blocking read *)
        let v = Engine.Ivar.read iv in
        seen := (i, v) :: !seen)
  done;
  Engine.spawn engine (fun () ->
      Engine.wait 1.0;
      Engine.Ivar.fill iv "v");
  Engine.run engine;
  Alcotest.(check int) "all readers woken" 3 (List.length !seen);
  Alcotest.(check bool) "filled" true (Engine.Ivar.is_filled iv)

let test_ivar_double_fill () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      let iv = Engine.Ivar.create () in
      Engine.Ivar.fill iv 1;
      Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
        (fun () -> Engine.Ivar.fill iv 2));
  Engine.run engine

let test_mailbox_fifo () =
  let engine = Engine.create () in
  let m = Engine.Mailbox.create () in
  let got = ref [] in
  Engine.spawn engine (fun () ->
      for _ = 1 to 3 do
        got := Engine.Mailbox.recv m :: !got
      done);
  Engine.spawn engine (fun () ->
      Engine.Mailbox.send m 1;
      Engine.Mailbox.send m 2;
      Engine.Mailbox.send m 3);
  Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking_recv () =
  let engine = Engine.create () in
  let m = Engine.Mailbox.create () in
  let at = ref 0.0 in
  Engine.spawn engine (fun () ->
      ignore (Engine.Mailbox.recv m);
      at := Engine.time ());
  Engine.spawn engine (fun () ->
      Engine.wait 4.0;
      Engine.Mailbox.send m ());
  Engine.run engine;
  check_float "recv completed at send time" 4.0 !at

let test_mailbox_try_recv () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      let m = Engine.Mailbox.create () in
      Alcotest.(check (option int)) "empty" None (Engine.Mailbox.try_recv m);
      Engine.Mailbox.send m 5;
      Alcotest.(check int) "length" 1 (Engine.Mailbox.length m);
      Alcotest.(check (option int)) "take" (Some 5) (Engine.Mailbox.try_recv m));
  Engine.run engine

let test_mailbox_recv_timeout () =
  let engine = Engine.create () in
  let r = ref (Some 1) in
  Engine.spawn engine (fun () ->
      let m : int Engine.Mailbox.m = Engine.Mailbox.create () in
      r := Engine.Mailbox.recv_timeout m 0.5);
  Engine.run engine;
  Alcotest.(check (option int)) "timeout returns None" None !r

let test_resource_serialises () =
  let engine = Engine.create () in
  let r = Engine.Resource.create 1 in
  let finish = ref [] in
  for i = 1 to 3 do
    Engine.spawn engine (fun () ->
        Engine.Resource.with_resource r (fun () -> Engine.wait 1.0);
        finish := (i, Engine.time ()) :: !finish)
  done;
  Engine.run engine;
  let times = List.rev_map snd !finish |> List.sort compare in
  Alcotest.(check (list (float 1e-9))) "serialised" [ 1.0; 2.0; 3.0 ] times

let test_resource_parallel () =
  let engine = Engine.create () in
  let r = Engine.Resource.create 3 in
  let finish = ref [] in
  for _ = 1 to 3 do
    Engine.spawn engine (fun () ->
        Engine.Resource.with_resource r (fun () -> Engine.wait 1.0);
        finish := Engine.time () :: !finish)
  done;
  Engine.run engine;
  List.iter (fun t -> check_float "all parallel" 1.0 t) !finish

let test_resource_queue_length () =
  let engine = Engine.create () in
  let r = Engine.Resource.create 1 in
  Engine.spawn engine (fun () -> Engine.Resource.with_resource r (fun () -> Engine.wait 5.0));
  Engine.spawn engine (fun () -> Engine.Resource.with_resource r (fun () -> ()));
  Engine.spawn engine (fun () ->
      Engine.wait 1.0;
      Alcotest.(check int) "one waiter" 1 (Engine.Resource.queue_length r);
      Alcotest.(check int) "none available" 0 (Engine.Resource.available r));
  Engine.run engine

let test_resource_release_on_exception () =
  let engine = Engine.create () in
  let r = Engine.Resource.create 1 in
  let ok = ref false in
  Engine.spawn engine (fun () ->
      (try Engine.Resource.with_resource r (fun () -> raise Exit) with Exit -> ());
      Engine.Resource.acquire r;
      ok := true;
      Engine.Resource.release r);
  Engine.run engine;
  Alcotest.(check bool) "released after exception" true !ok

let test_events_processed () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () -> Engine.wait 1.0);
  Engine.run engine;
  Alcotest.(check bool) "counted" true (Engine.events_processed engine >= 2)

(* {1 Withdrawn timers}

   A [suspend_timeout] beaten by its waker withdraws its timer from the
   event heap: the heap holds only live events, dispatch order and results
   are unchanged, and the clock stops at the last live event. *)

(* A ping-pong whose every reply beats a 1 s deadline by far: without
   withdrawal, 10,000 dead timers would sit in the heap at once and the
   clock would end 1 s after the last reply. *)
let test_dead_timers_do_not_pile_up () =
  let engine = Engine.create () in
  let requests : int Engine.Mailbox.m = Engine.Mailbox.create () in
  let replies : int Engine.Mailbox.m = Engine.Mailbox.create () in
  let n = 10_000 in
  let answered = ref 0 and last_reply = ref 0.0 in
  Engine.spawn engine (fun () ->
      for i = 1 to n do
        Engine.Mailbox.send requests i;
        match Engine.Mailbox.recv_timeout replies 1.0 with
        | Some v when v = i -> incr answered
        | Some _ | None -> ()
      done);
  Engine.spawn engine (fun () ->
      for _ = 1 to n do
        let i = Engine.Mailbox.recv requests in
        Engine.wait 1e-6;
        last_reply := Engine.time ();
        Engine.Mailbox.send replies i
      done);
  Engine.run engine;
  Alcotest.(check int) "every call answered" n !answered;
  let peak = Engine.peak_live_events engine in
  Alcotest.(check bool) (Printf.sprintf "peak live events %d <= 8" peak) true (peak <= 8);
  Alcotest.(check (float 0.0)) "clock stops at the last reply" !last_reply (Engine.now engine)

(* N processes park in [suspend_timeout]; each gets a wake at a random
   instant before its deadline, after it, or never. Times are distinct
   integers (in ms), so no two events tie. Every process must resume
   exactly once, at min(timeout, wake), with [Some i] exactly when its wake
   came first, and the resumptions must come back in time order. *)
let timeouts_resolve_in_order plan =
  let n = List.length plan in
  let engine = Engine.create () in
  let wakers = Array.make n None in
  let log = ref [] in
  (* Process i's instants are v * (2n + 1) + 2i (timeout) and + 2i + 1
     (wake): distinct across processes and from each other. *)
  let ms v k = float_of_int ((v * ((2 * n) + 1)) + k) *. 1e-3 in
  List.iteri
    (fun i (tv, wake) ->
      let timeout = ms tv (2 * i) in
      Engine.spawn engine (fun () ->
          let r = Engine.suspend_timeout timeout (fun w -> wakers.(i) <- Some w) in
          log := (i, Engine.time (), r) :: !log);
      Option.iter
        (fun wv ->
          Engine.schedule engine (ms wv ((2 * i) + 1)) (fun () ->
              Option.iter (fun w -> Engine.wake w i) wakers.(i)))
        wake)
    plan;
  Engine.run engine;
  let log = List.rev !log in
  let times = List.map (fun (_, t, _) -> t) log in
  List.length log = n
  && List.sort compare times = times
  && List.for_all
       (fun (i, t, r) ->
         let tv, wake = List.nth plan i in
         let timeout = ms tv (2 * i) in
         let count = List.length (List.filter (fun (j, _, _) -> j = i) log) in
         match wake with
         | Some wv when ms wv ((2 * i) + 1) < timeout ->
             count = 1 && t = ms wv ((2 * i) + 1) && r = Some i
         | Some _ | None -> count = 1 && t = timeout && r = None)
       log

let prop_timeouts_resolve_in_order =
  QCheck.Test.make ~name:"suspend_timeout resolves at min(timeout, wake)" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (pair (int_range 1 50) (option (int_range 1 50))))
    timeouts_resolve_in_order

(* Timers due at one instant fire in the order they were set, even when
   withdrawn timers set in between had to be pulled out of the heap. *)
let test_same_instant_fifo_across_cancel () =
  let engine = Engine.create () in
  let wakers = Hashtbl.create 4 in
  let log = ref [] in
  List.iter
    (fun name ->
      Engine.spawn engine (fun () ->
          let r = Engine.suspend_timeout 1.0 (fun w -> Hashtbl.replace wakers name w) in
          log := (name, Engine.time (), r = None) :: !log))
    [ "a"; "x"; "b"; "y"; "c" ];
  Engine.schedule engine 0.5 (fun () ->
      Engine.wake (Hashtbl.find wakers "x") ();
      Engine.wake (Hashtbl.find wakers "y") ());
  Engine.run engine;
  Alcotest.(check (list (triple string (float 0.0) bool)))
    "woken first, then same-instant timeouts in FIFO order"
    [
      ("x", 0.5, false);
      ("y", 0.5, false);
      ("a", 1.0, true);
      ("b", 1.0, true);
      ("c", 1.0, true);
    ]
    (List.rev !log)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time advances" `Quick test_time_advances;
          Alcotest.test_case "fifo same time" `Quick test_fifo_same_time;
          Alcotest.test_case "interleaving" `Quick test_interleaving;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "negative wait" `Quick test_negative_wait_clamped;
          Alcotest.test_case "fork" `Quick test_fork;
          Alcotest.test_case "events processed" `Quick test_events_processed;
        ] );
      ( "suspend",
        [
          Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
          Alcotest.test_case "double wake" `Quick test_double_wake_ignored;
          Alcotest.test_case "timeout fires" `Quick test_suspend_timeout_fires;
          Alcotest.test_case "timeout beaten" `Quick test_suspend_timeout_wakes;
          Alcotest.test_case "dead timers do not pile up" `Quick test_dead_timers_do_not_pile_up;
          Alcotest.test_case "same-instant fifo across cancel" `Quick
            test_same_instant_fifo_across_cancel;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7331 |])
            prop_timeouts_resolve_in_order;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "broadcast" `Quick test_ivar;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "try recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serialises" `Quick test_resource_serialises;
          Alcotest.test_case "parallel" `Quick test_resource_parallel;
          Alcotest.test_case "queue length" `Quick test_resource_queue_length;
          Alcotest.test_case "release on exception" `Quick test_resource_release_on_exception;
        ] );
    ]
