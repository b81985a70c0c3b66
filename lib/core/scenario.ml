open Ditto_app
module Plan = Ditto_fault.Plan
module Profile = Ditto_loadgen.Profile

type armour = {
  resilience : Spec.resilience;
  autoscale : Spec.autoscale option;
  client_timeout : float;
  client_retries : int;
}

type t = { plan : Plan.t option; profile : Rate.t option; armour : armour option }

let steady = { plan = None; profile = None; armour = None }

let armour ?(resilience = Spec.resilient ()) ?autoscale ?(client_timeout = 0.03)
    ?(client_retries = 1) () =
  { resilience; autoscale; client_timeout; client_retries }

let make ?(queue_bound = 48) ?plan ?profile () =
  match (plan, profile) with
  | None, None -> steady
  | Some _, None -> { plan; profile; armour = Some (armour ()) }
  | _, Some _ ->
      let resilience = Spec.resilient ~queue_bound () in
      { plan; profile; armour = Some (armour ~resilience ~autoscale:(Spec.autoscale ()) ()) }

let name t =
  match (t.plan, t.profile) with
  | Some p, Some r -> p.Plan.plan_name ^ "+" ^ r.Rate.profile_name
  | Some p, None -> p.Plan.plan_name
  | None, Some r -> r.Rate.profile_name
  | None, None -> "steady"

(* Every way reading, parsing or validating an input can fail, as an
   [Error] naming the input. *)
let guard input f =
  match f () with
  | v -> Ok v
  | exception Sys_error msg -> Error msg
  | exception (Ditto_util.Jsonx.Parse_error msg | Invalid_argument msg | Failure msg) ->
      Error (Printf.sprintf "%s: %s" input msg)

(* A selector is a canonical name first, a file otherwise. *)
let select ~kind ~names ~by_name ~of_file sel =
  if List.mem sel names then guard sel (fun () -> by_name sel)
  else if Sys.file_exists sel then guard sel (fun () -> of_file sel)
  else
    Error
      (Printf.sprintf "%s: neither a canonical %s (%s) nor a file" sel kind
         (String.concat ", " names))

let load ?queue_bound ~duration ~tiers ?plan ?profile () =
  let ( let* ) = Result.bind in
  let opt f = function None -> Ok None | Some sel -> Result.map Option.some (f sel) in
  let* plan =
    opt
      (fun sel ->
        let* canonical = guard sel (fun () -> Plan.canonical ~duration ~tiers) in
        let* p =
          select ~kind:"plan"
            ~names:(List.map (fun (p : Plan.t) -> p.Plan.plan_name) canonical)
            ~by_name:(fun n -> List.find (fun (p : Plan.t) -> p.Plan.plan_name = n) canonical)
            ~of_file:Plan.load sel
        in
        guard sel (fun () ->
            Plan.validate ~duration ~tiers p;
            p))
      plan
  in
  let* profile =
    opt
      (select ~kind:"profile" ~names:Profile.names ~by_name:(Profile.by_name ~duration)
         ~of_file:Profile.load)
      profile
  in
  guard "queue bound" (fun () -> make ?queue_bound ?plan ?profile ())
