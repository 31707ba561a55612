(** The cluster BGP speaker: terminates cluster members' external eBGP
    peerings (preserving AS identity), relays updates to/from the
    controller, deduplicates announcements per session and sends them
    through one {!Bgp.Mrai} queue per session. *)

type t

val create :
  ?liveness:Bgp.Config.keepalive ->
  sim:Engine.Sim.t ->
  send_relay:(member:Net.Asn.t -> neighbor:Net.Asn.t -> Bgp.Message.t -> bool) ->
  unit ->
  t
(** [send_relay] forwards a wire message toward the neighbor via the
    member's border switch.  [liveness] enables per-session KEEPALIVE
    emission and hold-timer supervision (negotiated per RFC 4271: the
    session hold time is the minimum of both proposals, 0 disables). *)

val node : t -> Engine.Node.t
(** The runtime node: a crash silently loses every session's state; a
    restart re-opens each configured session with a NOTIFICATION-then-OPEN
    exchange so remote routers flush and resync. *)

val set_handlers :
  t ->
  on_update:(member:Net.Asn.t -> neighbor:Net.Asn.t -> Bgp.Message.update -> unit) ->
  on_session:(member:Net.Asn.t -> neighbor:Net.Asn.t -> up:bool -> unit) ->
  unit
(** Wire the controller in. *)

val add_session :
  ?mrai_config:Bgp.Config.t ->
  t ->
  member:Net.Asn.t ->
  neighbor:Net.Asn.t ->
  member_addr:Net.Ipv4.addr ->
  unit
(** Configure one external peering.  Its UPDATEs go through a
    {!Bgp.Mrai} queue ranked by configuration order.  Without
    [mrai_config] the queue is unpaced — it only packs each event's
    changes, as ExaBGP relays the controller's routes at once — and with
    it the queue runs conventional MRAI pacing, as a router peer's does. *)

val sessions : t -> (Net.Asn.t * Net.Asn.t) list
(** (member, neighbor) pairs in configuration order. *)

val iter_sessions : t -> (member:Net.Asn.t -> neighbor:Net.Asn.t -> unit) -> unit
(** The same pairs in the same order, without building the list. *)

val sessions_of : t -> Net.Asn.t -> Net.Asn.t list

val session_established : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> bool

val open_session : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> unit

val open_all : t -> unit

val session_down : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> unit
(** E.g. after a PORT_STATUS down for the underlying link. *)

val handle_relay : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> Bgp.Message.t -> unit

val with_batch : t -> (unit -> 'a) -> 'a
(** Run [f] in the speaker's batch scope ({!Bgp.Mrai.with_batch}):
    announcements/withdrawals issued inside it coalesce per session and
    leave as one packed UPDATE per session when the outermost scope
    closes, sessions in configuration order.  Outside any scope an
    unpaced session sends each change at once. *)

val announce : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> Net.Ipv4.prefix -> Bgp.Attrs.t -> unit
(** Advertise (deduplicated against the session's Adj-RIB-Out). *)

val withdraw : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> Net.Ipv4.prefix -> unit

val advertised : t -> member:Net.Asn.t -> neighbor:Net.Asn.t -> Net.Ipv4.prefix -> Bgp.Attrs.t option
