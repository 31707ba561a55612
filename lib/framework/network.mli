(** The network builder: a topology spec turned into a running emulation —
    legacy BGP routers, SDN switches under the IDR controller + cluster
    speaker, the monitoring collector, automatic addressing/policies, and
    the data plane. *)

type t

val ctrl_node : int
(** Fabric node id hosting the controller + cluster BGP speaker. *)

val collector_node : int

val collector_asn : Net.Asn.t

val create :
  ?config:Config.t ->
  ?order:Engine.Sim.order ->
  ?owned:(int -> bool) ->
  seed:int ->
  Topology.Spec.t ->
  t
(** Build the emulation (validates the spec).  Call {!start} to open BGP
    sessions, then drive the simulator.

    [order] (default {!Engine.Sim.Seq}) selects the scheduler's
    tie-breaking discipline; sharded runs use [Canonical].  [owned]
    (default everything) restricts which fabric nodes this instance
    EXECUTES: the whole network is still constructed — replicated
    construction keeps every per-component RNG stream identical across
    shards — but {!start} and link watchers are gated to owned nodes, so
    non-owned replicas stay inert. *)

val start : t -> unit
(** Open all BGP sessions (routers and cluster speaker) on owned nodes. *)

val owned : t -> int -> bool
(** Whether this instance executes the given fabric node. *)

(* --- Accessors --- *)

val sim : t -> Engine.Sim.t

val seed : t -> int
(** The construction seed (recorded for checkpointing). *)

val fabric : t -> Payload.t Net.Netsim.t

val runtime_node : t -> Net.Asn.t -> Engine.Node.t option
(** The runtime node behind an AS (its router or switch) or, for
    {!collector_asn}, the collector. *)

val runtime_nodes : t -> Engine.Node.t list
(** Every runtime node in fabric-id order, plus the cluster speaker
    (which shares {!ctrl_node} with the controller). *)

val spec : t -> Topology.Spec.t

val plan : t -> Addressing.plan

val config : t -> Config.t

val collector : t -> Bgp.Collector.t

val controller : t -> Cluster_ctl.Controller.t option

val speaker : t -> Cluster_ctl.Speaker.t option

val routers : t -> Bgp.Router.t Net.Asn.Map.t

val router : t -> Net.Asn.t -> Bgp.Router.t option

val switch : t -> Net.Asn.t -> Sdn.Switch.t option

val asns : t -> Net.Asn.t list

val sdn_asns : t -> Net.Asn.t list

val legacy_asns : t -> Net.Asn.t list

val role : t -> Net.Asn.t -> Topology.Spec.role

val asn_of_node : t -> int -> Net.Asn.t option

val node_of_asn : t -> Net.Asn.t -> int option

val link_up : t -> Net.Asn.t -> Net.Asn.t -> bool

val link_delay : t -> Net.Asn.t -> Net.Asn.t -> Engine.Time.span option

(* --- Experiment operations --- *)

val originate : t -> Net.Asn.t -> Net.Ipv4.prefix -> unit
(** Originate at a legacy router or (via the controller) an SDN member;
    also marks the prefix for local data-plane delivery. *)

val withdraw : t -> Net.Asn.t -> Net.Ipv4.prefix -> unit

val fail_link : t -> Net.Asn.t -> Net.Asn.t -> unit
(** @raise Invalid_argument when no such link exists. *)

val recover_link : t -> Net.Asn.t -> Net.Asn.t -> unit

val fail_ctrl_link : t -> Net.Asn.t -> unit
(** Partition a member switch from the cluster head: only the control
    channel goes down, data-plane links are untouched (with
    {!Config.t.switch_liveness} set, the member degrades onto its legacy
    fallback route).  @raise Invalid_argument when the AS has no control
    link. *)

val recover_ctrl_link : t -> Net.Asn.t -> unit

val ctrl_link_up : t -> Net.Asn.t -> bool

val heal_all_links : t -> unit
(** Bring every failed link (AS-AS, control, collector) back up —
    chaos-schedule epilogue. *)

val crash_node : t -> Net.Asn.t -> unit
(** Crash the AS's component process (router or switch): volatile state
    is lost (RIBs and FIB, or the flow table), owned timers are
    cancelled, pending fabric deliveries are refused until restart.
    @raise Invalid_argument for an unknown AS. *)

val restart_node : t -> Net.Asn.t -> unit
(** Restart after {!crash_node}: a router re-announces its originations
    and re-opens every session with a NOTIFICATION-then-OPEN exchange; a
    switch comes back empty and the controller re-pushes its rules. *)

val crash_controller : t -> unit
(** Crash the cluster head — controller and speaker together (they are
    one emulated host).  @raise Invalid_argument without an SDN cluster. *)

val restart_controller : t -> unit
(** Restart the cluster head: the controller re-runs its pipeline for
    originated prefixes and external routes return as the speaker
    resyncs its sessions. *)

val add_peering :
  ?rel:Topology.Spec.rel -> ?delay:Engine.Time.span -> t -> Net.Asn.t -> Net.Asn.t -> unit
(** Add a new inter-AS peering at runtime ([Open] relationship by
    default; [C2p] = first AS is the customer): creates the link,
    configures both endpoints (router peer, speaker session, or
    controller switch-graph edge) and opens the session.
    @raise Invalid_argument for unknown ASes or an existing link. *)

val settle : ?max_events:int -> t -> Engine.Time.t
(** Run until the event queue drains (full protocol quiescence including
    MRAI timers).  @raise Failure at the event-limit safety valve. *)

val run_until : t -> Engine.Time.t -> unit

val now : t -> Engine.Time.t

(* --- Data plane --- *)

type data_stats = { mutable forwarded : int; mutable dropped : int; mutable delivered : int }

val data_stats : t -> data_stats

val inject : t -> src:Net.Asn.t -> Net.Packet.t -> unit
(** Start a packet at an AS, as if emitted by a local host. *)

val subscribe_deliver : t -> (Net.Asn.t -> Net.Packet.t -> unit) -> unit
(** Called on every locally delivered packet. *)

val set_auto_reply : t -> bool -> unit
(** Whether delivered echo requests generate replies (default true). *)

val add_local_prefix : t -> Net.Asn.t -> Net.Ipv4.prefix -> unit

val remove_local_prefix : t -> Net.Asn.t -> Net.Ipv4.prefix -> unit

val is_local_addr : t -> Net.Asn.t -> Net.Ipv4.addr -> bool

type forwarding = Local | Next of int | No_route

val forwarding_at : t -> Net.Asn.t -> Net.Ipv4.addr -> forwarding
(** The AS's current forwarding decision for an address (FIB for legacy,
    flow table for SDN members). *)

val dataplane_snapshot : t -> Net.Dataplane.t
(** Compile the composed forwarding state (FIBs + flow tables + local
    delivery sets + link liveness) into a frozen allocation-free
    fast-path snapshot over dense node indices.  Reads tables without
    the counting lookups, so probing the snapshot perturbs neither flow
    packet counters nor miss metrics.  Each call returns a new snapshot
    of the current state; only the nodes whose FIB or flow table changed
    since the previous call are recompiled, the rest share their
    immutable compiled tables, and an earlier snapshot keeps answering
    for the state it was taken from. *)

(* --- Whole-network checkpointing --- *)

type checkpoint
(** An in-memory snapshot: the construction recipe (seed, spec, config)
    plus link states, every runtime node's captured state, the wire
    (in-flight messages and the loss-RNG position) and the framework's
    data planes.  See DESIGN.md "Node runtime" for what is (and is not)
    captured. *)

val checkpoint : t -> checkpoint
(** @raise Invalid_argument when peerings were added at runtime
    ({!add_peering} state is not checkpointable). *)

val checkpoint_time : checkpoint -> Engine.Time.t

val restore : checkpoint -> t
(** Rebuild a network from a checkpoint.  The restored simulator's clock
    restarts at zero with captured events re-scheduled at their original
    absolute instants; do not call {!start} on the result — sessions are
    already open per the captured states. *)
