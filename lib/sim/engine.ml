open Effect
open Effect.Deep

(* Pending events in a binary min-heap ordered by (time, sequence); the
   sequence number makes same-time events FIFO and the heap total. The
   callback is stored unapplied next to its argument (an existential pair)
   so the hot wake path never allocates a wrapper closure: [wake w v] stores
   [f] and [v] side by side instead of building [fun () -> f v]. [pos] is
   the event's current heap slot, kept up to date by every sift, so a
   pending timer can be withdrawn in O(log n); it is -1 while the event is
   outside the heap (in the immediate FIFO, popped or withdrawn). *)
type event =
  | Ev : { at : float; seq : int; fn : 'a -> unit; arg : 'a; mutable pos : int } -> event

type t = {
  mutable time : float;
  mutable heap : event array;
  mutable size : int;
  (* Events scheduled for the current instant bypass the heap into this
     FIFO: wake/fork chains enqueue at [t.time], and sifting them through
     the heap is pure churn. The clock cannot advance while [imm] is
     non-empty (its entries are always at the global minimum time), and
     [pop] merges [imm] against the heap top by (time, seq), so dispatch
     order is bit-identical to the heap-only scheme. *)
  imm : event Queue.t;
  mutable next_seq : int;
  mutable processed : int;
  mutable peak_live : int;
  initial_capacity : int;
  mutable profile_label : string;
}

let dummy_event = Ev { at = 0.0; seq = 0; fn = ignore; arg = (); pos = -1 }

(* Largest event-storage high-water mark seen by any engine in this
   process, folded in when [run] returns (not on the push hot path). *)
let global_peak = Atomic.make 0

let rec fold_global_peak peak =
  let cur = Atomic.get global_peak in
  if peak > cur && not (Atomic.compare_and_set global_peak cur peak) then fold_global_peak peak

let global_peak_heap_events () = Atomic.get global_peak

let create ?(capacity = 256) () =
  let capacity = max 16 capacity in
  {
    time = 0.0;
    heap = Array.make capacity dummy_event;
    size = 0;
    imm = Queue.create ();
    next_seq = 0;
    processed = 0;
    peak_live = 0;
    initial_capacity = capacity;
    profile_label = "run";
  }

(* Drop the event arrays after a run so a pooled or still-referenced engine
   does not pin peak memory between clones. Counters survive for stats. *)
let reset t =
  fold_global_peak t.peak_live;
  for i = 0 to t.size - 1 do
    let (Ev e) = t.heap.(i) in
    e.pos <- -1
  done;
  t.heap <- Array.make 16 dummy_event;
  t.size <- 0;
  Queue.clear t.imm;
  t.time <- 0.0

let set_profile_label t label = t.profile_label <- label

let now t = t.time
let events_processed t = t.processed
let peak_live_events t = t.peak_live

let event_before (Ev a) (Ev b) = a.at < b.at || (a.at = b.at && a.seq < b.seq)

(* Sifts move a hole instead of swapping: the moving event is written
   once, at its final slot, and every event shifted past it has its [pos]
   updated as it moves. *)
let place t i (Ev e as ev) =
  t.heap.(i) <- ev;
  e.pos <- i

let rec sift_up t i ev =
  if i = 0 then place t 0 ev
  else
    let parent = (i - 1) / 2 in
    let p = t.heap.(parent) in
    if event_before ev p then begin
      place t i p;
      sift_up t parent ev
    end
    else place t i ev

let rec sift_down t i ev =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i ev
  else
    let r = l + 1 in
    let c = if r < t.size && event_before t.heap.(r) t.heap.(l) then r else l in
    let child = t.heap.(c) in
    if event_before child ev then begin
      place t i child;
      sift_down t c ev
    end
    else place t i ev

let push_heap t ev =
  if t.size = Array.length t.heap then begin
    (* Grow straight to at least the creation-time hint: a capacity guess
       that proved too small once should not cost log2(n) further copies. *)
    let bigger = Array.make (max (2 * t.size) t.initial_capacity) dummy_event in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) ev

(* Push an event and return it, so the caller can later [cancel] it. The
   sequence number is consumed here whether or not the event is ever
   dispatched, so withdrawing one event never reorders the others. *)
let push_event : type a. t -> float -> (a -> unit) -> a -> event =
 fun t at fn arg ->
  let at = Float.max at t.time in
  let ev = Ev { at; seq = t.next_seq; fn; arg; pos = -1 } in
  t.next_seq <- t.next_seq + 1;
  if at <= t.time then Queue.push ev t.imm else push_heap t ev;
  let live = t.size + Queue.length t.imm in
  if live > t.peak_live then t.peak_live <- live;
  ev

let push_app t at fn arg = ignore (push_event t at fn arg)
let push t at fn = push_app t at fn ()

(* Withdraw a pending heap event: the last event fills its slot and is
   re-sifted from there. Events outside the heap (already dispatched, or
   waiting in the immediate FIFO) are left alone. *)
let cancel t (Ev e) =
  let i = e.pos in
  if i >= 0 then begin
    e.pos <- -1;
    t.size <- t.size - 1;
    let last = t.heap.(t.size) in
    t.heap.(t.size) <- dummy_event;
    if i < t.size then
      if i > 0 && event_before last t.heap.((i - 1) / 2) then sift_up t i last
      else sift_down t i last
  end

let pop_heap t =
  if t.size = 0 then None
  else begin
    let (Ev e as top) = t.heap.(0) in
    e.pos <- -1;
    t.size <- t.size - 1;
    let last = t.heap.(t.size) in
    t.heap.(t.size) <- dummy_event;
    if t.size > 0 then sift_down t 0 last;
    Some top
  end

let pop t =
  match Queue.peek_opt t.imm with
  | None -> pop_heap t
  | Some iv ->
      (* A heap event at the same instant but with a lower sequence number
         predates everything in [imm]; otherwise the FIFO front is the
         global (time, seq) minimum. *)
      if t.size > 0 && event_before t.heap.(0) iv then pop_heap t
      else Some (Queue.pop t.imm)

let schedule t at fn = push t at fn

let every t ~start ~period ~until f =
  if not (period > 0.0) then invalid_arg "Engine.every: period must be positive";
  (* tick times are start + k*period, recomputed from k each arm, so a
     long chain of ticks carries no accumulated float error *)
  let rec arm k =
    let at = start +. (float_of_int k *. period) in
    if at <= until then
      push t at (fun () ->
          f at;
          arm (k + 1))
  in
  arm 0

type 'a waker = {
  engine : t;
  mutable resume : ('a -> unit) option;
  mutable woken : bool;
}

type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Suspend : ('a waker -> unit) -> 'a Effect.t
  | Fork : (unit -> unit) -> unit Effect.t
  | Now : float Effect.t

let rec exec t f =
  match_with f ()
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait d ->
              Some
                (fun (k : (a, _) continuation) ->
                  let d = Float.max 0.0 d in
                  push_app t (t.time +. d) (fun k -> continue k ()) k)
          | Now -> Some (fun (k : (a, _) continuation) -> continue k t.time)
          | Fork g ->
              Some
                (fun (k : (a, _) continuation) ->
                  push_app t t.time (exec t) g;
                  continue k ())
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  let w = { engine = t; resume = None; woken = false } in
                  w.resume <- Some (fun v -> continue k v);
                  register w)
          | _ -> None);
    }

let spawn t ?at f =
  let at = match at with Some a -> a | None -> t.time in
  push_app t at (exec t) f

let events_counter = Ditto_obs.Obs.Metrics.counter "sim.events"

let run_loop ?until t =
  let continue_run = ref true in
  while !continue_run do
    match pop t with
    | None -> continue_run := false
    | Some (Ev ev) -> (
        match until with
        | Some limit when ev.at > limit ->
            (* Leave the event unprocessed conceptually; the clock stops at
               the limit. We drop it: runs with [until] are terminal. *)
            t.time <- limit;
            continue_run := false
        | _ ->
            t.time <- ev.at;
            t.processed <- t.processed + 1;
            ev.fn ev.arg)
  done

(* Profiled variant: attribute every event's virtual-time advance to the
   engine's (des -> label -> event) stack on the profiler's Sim track. Kept
   separate from [run_loop] so the unprofiled path stays branch-free. *)
let run_loop_profiled ?until t =
  let continue_run = ref true in
  while !continue_run do
    match pop t with
    | None -> continue_run := false
    | Some (Ev ev) -> (
        match until with
        | Some limit when ev.at > limit ->
            t.time <- limit;
            continue_run := false
        | _ ->
            let before = t.time in
            t.time <- ev.at;
            t.processed <- t.processed + 1;
            Ditto_obs.Profiler.record_sim
              ~stack:[ "des"; t.profile_label; "event" ]
              ~seconds:(ev.at -. before);
            ev.fn ev.arg)
  done

let run ?until t =
  let run_loop ?until t =
    if Ditto_obs.Profiler.enabled () then run_loop_profiled ?until t else run_loop ?until t
  in
  let finish_peak () = fold_global_peak t.peak_live in
  if not (Ditto_obs.Obs.enabled ()) then (
    run_loop ?until t;
    finish_peak ())
  else begin
    let before = t.processed in
    let finish () =
      finish_peak ();
      let events = t.processed - before in
      Ditto_obs.Obs.Metrics.add events_counter events;
      Ditto_obs.Obs.Span.add_attr "events" (Int events);
      Ditto_obs.Obs.Span.add_attr "sim_time" (Float t.time)
    in
    Ditto_obs.Obs.Span.with_span ~name:"sim.run" (fun () ->
        match run_loop ?until t with
        | () -> finish ()
        | exception e ->
            finish ();
            raise e)
  end

let time () = perform Now
let wait d = perform (Wait d)

let wake w v =
  if not w.woken then begin
    w.woken <- true;
    match w.resume with
    | None -> ()
    | Some f ->
        w.resume <- None;
        push_app w.engine w.engine.time f v
  end

let is_woken w = w.woken
let suspend register = perform (Suspend register)

(* The timer is withdrawn from the heap as soon as the inner waker's
   resumption runs, so a wait beaten by traffic leaves no dead event behind.
   A zero timeout sits in the immediate FIFO, where it cannot be withdrawn;
   the [inner.woken] guard turns it into a no-op. *)
let suspend_timeout d register =
  suspend (fun (outer : 'a option waker) ->
      let engine = outer.engine in
      let timer = ref dummy_event in
      let inner =
        {
          engine;
          resume =
            Some
              (fun v ->
                cancel engine !timer;
                wake outer (Some v));
          woken = false;
        }
      in
      register inner;
      timer :=
        push_event engine (engine.time +. d) (fun () ->
            if not inner.woken then begin
              inner.woken <- true;
              inner.resume <- None;
              wake outer None
            end)
          ())

let fork f = perform (Fork f)

module Ivar = struct
  type 'a v = { mutable value : 'a option; mutable readers : 'a waker list }

  let create () = { value = None; readers = [] }

  let fill v x =
    match v.value with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
        v.value <- Some x;
        List.iter (fun w -> wake w x) v.readers;
        v.readers <- []

  let read v =
    match v.value with
    | Some x -> x
    | None -> suspend (fun w -> v.readers <- w :: v.readers)

  let is_filled v = v.value <> None
end

module Mailbox = struct
  type 'a m = { q : 'a Queue.t; waiters : 'a waker Queue.t }

  let create () = { q = Queue.create (); waiters = Queue.create () }

  let rec deliver m v =
    match Queue.take_opt m.waiters with
    | None -> Queue.push v m.q
    | Some w -> if is_woken w then deliver m v else wake w v

  let send m v = deliver m v

  let recv m =
    match Queue.take_opt m.q with
    | Some v -> v
    | None -> suspend (fun w -> Queue.push w m.waiters)

  let try_recv m = Queue.take_opt m.q

  let recv_timeout m d =
    match Queue.take_opt m.q with
    | Some v -> Some v
    | None -> suspend_timeout d (fun w -> Queue.push w m.waiters)

  let length m = Queue.length m.q
end

module Resource = struct
  type r = { cap : int; mutable in_use : int; waiters : unit waker Queue.t }

  let create cap =
    if cap <= 0 then invalid_arg "Resource.create: capacity must be positive";
    { cap; in_use = 0; waiters = Queue.create () }

  let capacity r = r.cap
  let available r = r.cap - r.in_use

  let acquire r =
    if r.in_use < r.cap then r.in_use <- r.in_use + 1
    else suspend (fun w -> Queue.push w r.waiters)

  (* On release, hand the slot directly to the next live waiter so [in_use]
     stays constant across the transfer; otherwise free the slot. *)
  let rec release r =
    match Queue.take_opt r.waiters with
    | None -> r.in_use <- r.in_use - 1
    | Some w -> if is_woken w then release r else wake w ()

  let with_resource r f =
    acquire r;
    match f () with
    | result ->
        release r;
        result
    | exception e ->
        release r;
        raise e

  let queue_length r = Queue.fold (fun acc w -> if is_woken w then acc else acc + 1) 0 r.waiters
end
