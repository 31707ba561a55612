(** Convergence detection: instruments every decision point (legacy
    Loc-RIBs, controller decisions) and the route collector, and measures
    per-prefix convergence of experiment events. *)

type t

val attach : Network.t -> t
(** Subscribe to every router and the controller.  Attach before running
    the phase you want measured. *)

val last_control_change : t -> Net.Ipv4.prefix -> Engine.Time.t option

val last_collector_update : t -> Net.Ipv4.prefix -> Engine.Time.t option

val control_changes : t -> Net.Ipv4.prefix -> int
(** Total best-route changes observed for the prefix. *)

val last_any_change : t -> Engine.Time.t
(** Latest control-plane change for any prefix. *)

type measurement = {
  prefix : Net.Ipv4.prefix;
  event_time : Engine.Time.t;
  settled_at : Engine.Time.t;
  last_change : Engine.Time.t option;
  convergence : Engine.Time.span option;
  changes : int;
}

val measure :
  ?max_events:int ->
  ?changes_before:int ->
  t ->
  prefix:Net.Ipv4.prefix ->
  event_time:Engine.Time.t ->
  measurement
(** Run the network to quiescence and report the interval from
    [event_time] to the prefix's last control-plane change ([None] when
    the event changed nothing). *)

val wait_quiet :
  ?step:Engine.Time.span ->
  ?max_wait:Engine.Time.span ->
  quiet:Engine.Time.span ->
  t ->
  [ `Quiet of Engine.Time.t | `Timeout of Engine.Time.t ]
(** Advance the simulation until no control-plane change for [quiet] —
    the detection mode for networks whose event queue never drains
    (keepalives, endless probe streams). *)

val pp_measurement : Format.formatter -> measurement -> unit

(** {1 Route-change history}

    Every best-route change and controller decision for each prefix, as
    typed values formatted only when rendered — the framework's
    log-analysis view.  Recording is opt-in: {!attach} keeps none. *)

type change =
  | Best of Net.Asn.t * Bgp.Route.t option
      (** a legacy router's new Loc-RIB best route ([None] = unreachable) *)
  | Decision of Net.Asn.t * Cluster_ctl.As_graph.decision option
      (** the controller's new decision for a member *)

type route_change = { time : Engine.Time.t; prefix : Net.Ipv4.prefix; change : change }

type history

val record_history : Network.t -> history
(** Start recording from now on, from the same sources as {!attach}. *)

val route_changes : history -> Net.Ipv4.prefix -> route_change list
(** The prefix's recorded changes, in time order. *)

val exploration_rounds : route_change list -> int
(** Count the MRAI-spaced waves of a prefix's time-ordered changes
    (clusters split at gaps above 10 s, about half the default MRAI) —
    the "rounds" whose count times the MRAI is Fig. 2's convergence
    time. *)

val pp_route_change : Format.formatter -> route_change -> unit
(** ["0.207s info controller[controller]: decision P AS65004: ..."] or
    ["1.990s info AS65003[bgp]: bestpath P -> [AS65002 AS65001]"]. *)
