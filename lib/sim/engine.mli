(** Discrete-event simulation engine with effect-based processes.

    Simulated entities (threads, NICs, disks, load generators) are ordinary
    OCaml functions that perform blocking operations — [wait], [suspend] —
    implemented with OCaml 5 effect handlers, so tier logic reads like the
    straight-line pseudo-code of Fig. 3 in the paper (epoll_wait; read;
    handle; sendmsg) while the engine interleaves processes in virtual time.

    Time is in seconds (float). All operations must be performed from within
    a process spawned on the engine. *)

type t
(** An engine instance: virtual clock plus pending-event queue. *)

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] builds an engine. [capacity] (default 256) is a
    hint for the number of simultaneously pending events: the event heap is
    pre-sized to it so wide runs (hundreds of tiers) never pay repeated
    array doubling, and an undersized guess grows straight back to the hint
    rather than by powers of two from the current size. *)

val reset : t -> unit
(** Drop the engine's event storage (heap array and immediate queue) and
    rewind the clock, releasing peak memory once a run is over so pooled or
    still-referenced engines don't pin it between back-to-back clones.
    [events_processed] and {!peak_live_events} survive for reporting. *)

val now : t -> float
(** Current virtual time. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t at f] runs callback [f] at absolute time [at] (clamped to
    now). Callbacks may spawn processes and wake suspended ones. *)

val spawn : t -> ?at:float -> (unit -> unit) -> unit
(** Start a new process at absolute time [at] (default: now). *)

val every : t -> start:float -> period:float -> until:float -> (float -> unit) -> unit
(** [every t ~start ~period ~until f] runs callback [f at] at each tick
    [at = start + k * period] for [k = 0, 1, ...] while [at <= until].
    Tick times are computed from [k] (not by accumulating [period]) so
    long chains don't drift. Like {!schedule} callbacks, [f] runs outside
    process context: it must not perform engine effects — it receives the
    tick's virtual time as its argument instead of reading the clock.
    Raises [Invalid_argument] if [period] is not positive. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, advancing the clock; stop early once the clock
    would exceed [until]. When the queue drains first, {!now} is left at
    the time of the last event dispatched: timers withdrawn by
    {!suspend_timeout} do not advance it. *)

val events_processed : t -> int
(** Total events dispatched so far (for engine benchmarking). Timers
    withdrawn by {!suspend_timeout} are not dispatched and not counted. *)

val peak_live_events : t -> int
(** High-water mark of simultaneously pending live events (heap +
    immediate queue) over this engine's lifetime — the number [create]'s
    [?capacity] hint should cover. A withdrawn timer stops counting as soon
    as it is withdrawn. *)

val global_peak_heap_events : unit -> int
(** Largest {!peak_live_events} observed by any engine in this process
    (folded in when [run] returns or [reset] is called); exported by
    [bench --json] as [engine.peak_heap_events]. *)

val set_profile_label : t -> string -> unit
(** Label under which this engine's event processing is sampled when
    {!Ditto_obs.Profiler} is enabled (stack [des;label;event] on the [Sim]
    track, weighted by virtual-time advance). Default ["run"];
    {!Ditto_app.Runner} sets it to the application name. *)

(** {1 Operations available inside processes} *)

val time : unit -> float
(** Current virtual time, from within a process. *)

val wait : float -> unit
(** Block the calling process for a (non-negative) duration. *)

type 'a waker
(** One-shot resumption handle for a suspended process. *)

val wake : 'a waker -> 'a -> unit
(** Resume the suspended process with a value, at the engine's current
    time. Waking an already-woken waker is a no-op. *)

val is_woken : 'a waker -> bool

val suspend : ('a waker -> unit) -> 'a
(** [suspend register] parks the calling process and hands a waker to
    [register]; the process resumes when someone calls [wake]. *)

val suspend_timeout : float -> ('a waker -> unit) -> 'a option
(** Like [suspend], but resumes with [None] after the timeout if not woken
    earlier. When the waker fires first, the timer is withdrawn from the
    event queue as the process resumes, so a wait beaten by traffic leaves
    no dead event behind. The timer still takes its place in the
    same-instant FIFO order when it is set, so withdrawing it never
    reorders other events. A timeout of zero (or less) is queued for the
    current instant and is not withdrawn: it fires as a no-op. *)

val fork : (unit -> unit) -> unit
(** Spawn a sibling process on the same engine, starting now. *)

(** {1 Synchronisation primitives} *)

module Ivar : sig
  (** Write-once cell: readers block until the value is set. *)

  type 'a v

  val create : unit -> 'a v
  val fill : 'a v -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val read : 'a v -> 'a
  (** Blocks until filled. *)

  val is_filled : 'a v -> bool
end

module Mailbox : sig
  (** Unbounded FIFO channel between processes. *)

  type 'a m

  val create : unit -> 'a m
  val send : 'a m -> 'a -> unit
  (** Never blocks; wakes one waiting receiver if any. *)

  val recv : 'a m -> 'a
  (** Blocks until a message is available. *)

  val recv_timeout : 'a m -> float -> 'a option
  val try_recv : 'a m -> 'a option
  val length : 'a m -> int
end

module Resource : sig
  (** Counted resource (semaphore) with FIFO waiters — models cores, disk
      channels, NIC transmit slots. *)

  type r

  val create : int -> r
  (** [create capacity]; capacity must be positive. *)

  val capacity : r -> int
  val available : r -> int
  val acquire : r -> unit
  (** Blocks until a unit is free. *)

  val release : r -> unit
  val with_resource : r -> (unit -> 'a) -> 'a
  val queue_length : r -> int
  (** Number of processes currently blocked in [acquire]. *)
end
