(* Convergence detection.

   The framework's definition (matching the paper's tooling): the network
   has converged for a prefix when no routing state anywhere changes any
   more.  We instrument every decision point — each legacy router's
   Loc-RIB and each controller member decision — plus the route
   collector's update stream, and record the last change time per prefix.
   Because the emulation is a discrete-event simulation, "no more events"
   is an exact quiet-period test: [Network.settle] drains the queue and
   the convergence time is simply the last recorded change.

   Attach the watcher *before* running the phase being measured. *)

module Pm = Net.Ipv4.Prefix_map

type t = {
  mutable last_control_change : Engine.Time.t Pm.t; (* loc-rib / decisions *)
  mutable last_collector_update : Engine.Time.t Pm.t;
  mutable control_changes : int Pm.t;
  mutable last_any : Engine.Time.t; (* latest control change, any prefix *)
  network : Network.t;
}

let bump_map time prefix m = Pm.add prefix time m

(* The two sources of route changes: every legacy router's Loc-RIB and
   every controller member decision. *)
let subscribe network ~on_best ~on_decision =
  Net.Asn.Map.iter
    (fun asn router -> Bgp.Router.subscribe_best_change router (on_best asn))
    (Network.routers network);
  Option.iter
    (fun ctrl -> Cluster_ctl.Controller.subscribe_decision_change ctrl on_decision)
    (Network.controller network)

let attach network =
  let t =
    {
      last_control_change = Pm.empty;
      last_collector_update = Pm.empty;
      control_changes = Pm.empty;
      last_any = Engine.Time.zero;
      network;
    }
  in
  let m = Engine.Sim.metrics (Network.sim network) in
  let changes_c =
    Engine.Metrics.counter m ~help:"control-plane changes observed (any prefix)"
      "convergence_control_changes_total"
  in
  let last_change_g =
    Engine.Metrics.gauge m ~help:"simulated time of the last control-plane change"
      "convergence_last_change_seconds"
  in
  let note prefix =
    let now = Engine.Sim.now (Network.sim network) in
    t.last_control_change <- bump_map now prefix t.last_control_change;
    t.last_any <- now;
    Engine.Metrics.Counter.inc changes_c;
    Engine.Metrics.Gauge.set last_change_g (Engine.Time.to_sec_f now);
    t.control_changes <-
      Pm.update prefix (fun c -> Some (1 + Option.value c ~default:0)) t.control_changes
  in
  subscribe network
    ~on_best:(fun _ prefix _ -> note prefix)
    ~on_decision:(fun prefix _ _ -> note prefix);
  t

(* Refresh collector-derived timestamps (pull, not push).  Reads the
   collector's maintained per-prefix last-update instants — available
   under every retention mode — rather than rescanning the event log. *)
let refresh_collector t =
  let collector = Network.collector t.network in
  List.iter
    (fun (prefix, time) ->
      let current = Pm.find_opt prefix t.last_collector_update in
      let better =
        match current with None -> true | Some c -> Engine.Time.(time > c)
      in
      if better then
        t.last_collector_update <- bump_map time prefix t.last_collector_update)
    (Bgp.Collector.last_updates collector)

let last_control_change t prefix = Pm.find_opt prefix t.last_control_change

let last_collector_update t prefix =
  refresh_collector t;
  Pm.find_opt prefix t.last_collector_update

let control_changes t prefix = Option.value (Pm.find_opt prefix t.control_changes) ~default:0

(* Convergence time of an event on a prefix: run the network to
   quiescence, then report the interval from [event_time] to the last
   control-plane change for the prefix.  [None] if nothing changed after
   the event (e.g. the event was a no-op). *)
type measurement = {
  prefix : Net.Ipv4.prefix;
  event_time : Engine.Time.t;
  settled_at : Engine.Time.t;
  last_change : Engine.Time.t option;
  convergence : Engine.Time.span option;
  changes : int;
}

let measure ?(max_events = 10_000_000) ?changes_before t ~prefix ~event_time =
  let changes_before =
    match changes_before with Some c -> c | None -> control_changes t prefix
  in
  let settled_at = Network.settle ~max_events t.network in
  let last_change =
    match last_control_change t prefix with
    | Some time when Engine.Time.(time >= event_time) -> Some time
    | Some _ | None -> None
  in
  let convergence = Option.map (fun c -> Engine.Time.diff c event_time) last_change in
  {
    prefix;
    event_time;
    settled_at;
    last_change;
    convergence;
    changes = control_changes t prefix - changes_before;
  }

(* Quiet-period convergence waiting: advance the simulation in [step]
   increments until no control-plane change has occurred for [quiet].
   This is the detection mode for experiments whose event queue never
   drains (periodic keepalives, endless probe streams) — the analogue of
   the original framework's "wait until BGP has converged" command. *)
let wait_quiet ?(step = Engine.Time.sec 1) ?(max_wait = Engine.Time.sec 7200) ~quiet t =
  let sim = Network.sim t.network in
  let deadline = Engine.Time.add (Engine.Sim.now sim) max_wait in
  let rec loop () =
    let now = Engine.Sim.now sim in
    let quiet_for = Engine.Time.diff now (Engine.Time.max t.last_any Engine.Time.zero) in
    if Engine.Time.(quiet_for >= quiet) then `Quiet now
    else if Engine.Time.(now >= deadline) then `Timeout now
    else begin
      match Engine.Sim.run ~until:(Engine.Time.add now step) sim with
      | Engine.Sim.Exhausted -> `Quiet (Engine.Sim.now sim)
      | Engine.Sim.Reached_time _ | Engine.Sim.Reached_limit -> loop ()
    end
  in
  loop ()

let last_any_change t = t.last_any

let pp_measurement ppf m =
  Fmt.pf ppf "event@%a settled@%a convergence=%a changes=%d" Engine.Time.pp m.event_time
    Engine.Time.pp m.settled_at
    (Fmt.option ~none:(Fmt.any "none") Engine.Time.pp_span)
    m.convergence m.changes

(* --- Route-change history ------------------------------------------------
   The analogue of the original framework's log analysis, on typed
   values: each change keeps the new route or decision and is formatted
   only when rendered.  Opt-in — [attach] records no history, so a run
   that never asks for one does not pay for it. *)

type change =
  | Best of Net.Asn.t * Bgp.Route.t option
  | Decision of Net.Asn.t * Cluster_ctl.As_graph.decision option

type route_change = { time : Engine.Time.t; prefix : Net.Ipv4.prefix; change : change }

type history = { mutable by_prefix : route_change list Pm.t (* newest first *) }

let record_history network =
  let h = { by_prefix = Pm.empty } in
  let sim = Network.sim network in
  let add prefix change =
    let c = { time = Engine.Sim.now sim; prefix; change } in
    h.by_prefix <- Pm.update prefix (fun l -> Some (c :: Option.value l ~default:[])) h.by_prefix
  in
  subscribe network
    ~on_best:(fun asn prefix route -> add prefix (Best (asn, route)))
    ~on_decision:(fun prefix member d -> add prefix (Decision (member, d)));
  h

let route_changes h prefix = List.rev (Option.value (Pm.find_opt prefix h.by_prefix) ~default:[])

(* Path-exploration rounds: best-route changes for a prefix cluster into
   MRAI-spaced waves; we count the clusters, splitting wherever the gap
   between consecutive changes exceeds [round_gap] (about half the
   default MRAI).  This turns the mechanism behind Fig. 2 — "convergence
   time = rounds x MRAI" — into a measurable quantity. *)
let round_gap = Engine.Time.sec 10

let exploration_rounds changes =
  let rec count rounds prev = function
    | [] -> rounds
    | c :: rest ->
      let rounds = if Engine.Time.(c.time > add prev round_gap) then rounds + 1 else rounds in
      count rounds c.time rest
  in
  match changes with [] -> 0 | c :: rest -> count 1 c.time rest

let pp_route_change ppf c =
  let seconds = float_of_int (Engine.Time.to_us c.time) /. 1e6 in
  match c.change with
  | Best (asn, Some route) ->
    Fmt.pf ppf "%.3fs info %a[bgp]: bestpath %a -> [%a]" seconds Net.Asn.pp asn
      Net.Ipv4.pp_prefix c.prefix Bgp.Attrs.pp_path
      (Bgp.Attrs.as_path (Bgp.Route.attrs route))
  | Best (asn, None) ->
    Fmt.pf ppf "%.3fs info %a[bgp]: bestpath %a -> unreachable" seconds Net.Asn.pp asn
      Net.Ipv4.pp_prefix c.prefix
  | Decision (member, decision) ->
    Fmt.pf ppf "%.3fs info controller[controller]: decision %a %a: %a" seconds
      Net.Ipv4.pp_prefix c.prefix Net.Asn.pp member
      (Fmt.option ~none:(Fmt.any "unreachable") Cluster_ctl.As_graph.pp_decision)
      decision
