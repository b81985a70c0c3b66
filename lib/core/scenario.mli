(** Validation scenarios (DESIGN.md §8): the conditions one
    original-vs-clone validation runs under, as data.

    Ditto clones once and then validates the clone under any load, fault
    or interference condition without reprofiling (Fig. 3). A scenario is
    that condition: an optional fault plan, an optional open-loop rate
    profile, and the armour both sides get against them. Steady state is
    the empty scenario with no armour. {!Pipeline.run} takes one and runs
    the pair. *)

type armour = {
  resilience : Ditto_app.Spec.resilience;  (** overlaid on every tier *)
  autoscale : Ditto_app.Spec.autoscale option;  (** overlaid on every tier when set *)
  client_timeout : float;  (** client deadline, seconds *)
  client_retries : int;
}
(** The same armour goes on original and clone alike, so a comparison
    probes whether the clone degrades (and scales) like the original, not
    whether it is configured like it. *)

type t = {
  plan : Ditto_fault.Plan.t option;  (** fault schedule armed, if any *)
  profile : Ditto_app.Rate.t option;  (** rate profile replacing the load's own, if any *)
  armour : armour option;
      (** [None] runs both sides exactly as configured: no overlay, no
          client deadline *)
}

val steady : t
(** No plan, no profile, no armour. *)

val armour :
  ?resilience:Ditto_app.Spec.resilience ->
  ?autoscale:Ditto_app.Spec.autoscale ->
  ?client_timeout:float ->
  ?client_retries:int ->
  unit ->
  armour
(** Defaults: [Spec.resilient ()], no autoscaling, a 30 ms client
    deadline and one client retry. *)

val make : ?queue_bound:int -> ?plan:Ditto_fault.Plan.t -> ?profile:Ditto_app.Rate.t -> unit -> t
(** The armour a scenario gets by what it holds: neither plan nor profile
    is {!steady}; a plan alone gets the default {!armour}; a profile also
    arms autoscaling ([Spec.autoscale ()]) and a [queue_bound]-deep shed
    threshold (default 48, tight enough that a 4x flash crowd sheds). *)

val name : t -> string
(** ["<plan>+<profile>"], either half alone, or ["steady"]: the scenario
    key used in scorecards and flat metric paths. *)

val load :
  ?queue_bound:int ->
  duration:float ->
  tiers:string list ->
  ?plan:string ->
  ?profile:string ->
  unit ->
  (t, string) result
(** Build a scenario with {!make} from selectors. [plan] is a canonical
    plan name ({!Ditto_fault.Plan.canonical}) or a plan JSON file,
    validated against [tiers] and [duration]; [profile] is a canonical
    profile name ({!Ditto_loadgen.Profile.names}) or a Rate JSON file.
    Every bad input (missing file, malformed JSON, unknown event kind,
    out-of-range value, unknown tier or name) comes back as [Error]
    naming the input; this never raises. *)
