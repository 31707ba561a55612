(* The network builder: turn a topology spec into a running emulation.

   Layout on the fabric:
   - every AS is one node whose id is its raw ASN integer — a legacy node
     runs a Bgp.Router, an SDN node runs an Sdn.Switch;
   - node [collector_node] (-2) hosts the monitoring route collector,
     linked and peered with every AS;
   - node [ctrl_node] (-1) hosts the cluster BGP speaker and the IDR
     controller, linked to every SDN switch (the per-peering
     speaker-to-border-switch relay links of the paper);
   - data packets are forwarded through legacy FIBs and SDN flow tables,
     so end-to-end connectivity reflects actual programmed state. *)

module Pm = Net.Ipv4.Prefix_map

let ctrl_node = -1

let collector_node = -2

let collector_asn = Net.Asn.of_int 4_200_000_000

type data_stats = { mutable forwarded : int; mutable dropped : int; mutable delivered : int }

(* Where an AS's forwarding state lives. *)
type fwd_source = Legacy of int Net.Fib.t | Member of Sdn.Flow_table.t

(* The data plane's compile cache, filled by the first snapshot: the
   dense layout, each AS's live table, and the table compiled from it
   with the generation it was compiled at. *)
type dp_cache = {
  layout : Net.Dataplane.layout;
  dense_asns : Net.Asn.t array; (* dense index -> AS *)
  router_addrs : Net.Ipv4.addr array; (* by dense index *)
  sources : fwd_source array;
  gens : int array; (* -1: not compiled yet *)
  tables : Net.Dataplane.table array;
}

type t = {
  sim : Engine.Sim.t;
  net : Payload.t Net.Netsim.t;
  seed : int; (* construction seed, recorded for checkpointing *)
  spec : Topology.Spec.t;
  plan : Addressing.plan;
  config : Config.t;
  routers : Bgp.Router.t Net.Asn.Map.t;
  switches : Sdn.Switch.t Net.Asn.Map.t;
  fibs : int Net.Fib.t Net.Asn.Map.t; (* legacy data planes: prefix -> next node *)
  local_prefixes : (Net.Asn.t, Net.Ipv4.Prefix_set.t ref) Hashtbl.t;
  collector : Bgp.Collector.t;
  controller : Cluster_ctl.Controller.t option;
  speaker : Cluster_ctl.Speaker.t option;
  data_stats : data_stats;
  mutable on_deliver : (Net.Asn.t -> Net.Packet.t -> unit) list; (* newest first *)
  mutable auto_reply : bool;
  (* relationships of peerings added at runtime, keyed (me, neighbor) *)
  rel_overrides : (Net.Asn.t * Net.Asn.t, Bgp.Policy.relationship) Hashtbl.t;
  (* sharded execution: which fabric nodes this instance executes.  The
     full network is always CONSTRUCTED (replicated construction keeps
     every per-component RNG stream identical across shards); ownership
     only gates what runs — [start] and link watchers. *)
  owned : int -> bool;
  mutable dp_cache : dp_cache option;
}

let sim t = t.sim

let fabric t = t.net

let spec t = t.spec

let plan t = t.plan

let config t = t.config

let collector t = t.collector

let controller t = t.controller

let speaker t = t.speaker

let data_stats t = t.data_stats

let routers t = t.routers

let router t asn = Net.Asn.Map.find_opt asn t.routers

let switch t asn = Net.Asn.Map.find_opt asn t.switches

let seed t = t.seed

(* --- Node registry ------------------------------------------------------ *)

(* The runtime node behind an AS (router or switch) or the collector; the
   registry is the fabric's attachment table, so Network itself holds no
   duplicate component bookkeeping. *)
let runtime_node t asn =
  if Net.Asn.equal asn collector_asn then
    Net.Netsim.attached_node t.net collector_node
  else if Topology.Spec.mem t.spec asn then
    Net.Netsim.attached_node t.net (Net.Asn.to_int asn)
  else None

(* Every runtime node, fabric id order (controller at [ctrl_node],
   collector at [collector_node] first), plus the speaker, which has no
   fabric node of its own (it shares [ctrl_node] with the controller). *)
let runtime_nodes t =
  let fabric =
    List.filter_map (Net.Netsim.attached_node t.net) (Net.Netsim.node_ids t.net)
  in
  match t.speaker with
  | Some sp -> fabric @ [ Cluster_ctl.Speaker.node sp ]
  | None -> fabric

let asns t = Topology.Spec.asns t.spec

let sdn_asns t = Topology.Spec.sdn_asns t.spec

let legacy_asns t = Topology.Spec.legacy_asns t.spec

let node_of_asn_exn asn = Net.Asn.to_int asn

let is_as_node t node = node > 0 && Topology.Spec.mem t.spec (Net.Asn.of_int node)

let asn_of_node t node =
  if node = collector_node then Some collector_asn
  else if is_as_node t node then Some (Net.Asn.of_int node)
  else None

let node_of_asn t asn =
  if Net.Asn.equal asn collector_asn then Some collector_node
  else if Topology.Spec.mem t.spec asn then Some (Net.Asn.to_int asn)
  else None

let local_set t asn =
  match Hashtbl.find_opt t.local_prefixes asn with
  | Some s -> s
  | None ->
    let s = ref Net.Ipv4.Prefix_set.empty in
    Hashtbl.replace t.local_prefixes asn s;
    s

let is_local_addr t asn addr =
  Net.Ipv4.equal_addr addr (t.plan.Addressing.router_addr asn)
  || Net.Ipv4.Prefix_set.exists (fun p -> Net.Ipv4.mem addr p) !(local_set t asn)

let add_local_prefix t asn prefix =
  let s = local_set t asn in
  s := Net.Ipv4.Prefix_set.add prefix !s

let remove_local_prefix t asn prefix =
  let s = local_set t asn in
  s := Net.Ipv4.Prefix_set.remove prefix !s

let subscribe_deliver t f = t.on_deliver <- f :: t.on_deliver

(* Subscribers are consed newest-first; notify them in subscription order
   without allocating. *)
let rec notify_deliver asn packet = function
  | [] -> ()
  | f :: older ->
    notify_deliver asn packet older;
    f asn packet

let set_auto_reply t flag = t.auto_reply <- flag

(* --- Data plane --------------------------------------------------------- *)

let rec deliver_local t asn (packet : Net.Packet.t) =
  t.data_stats.delivered <- t.data_stats.delivered + 1;
  notify_deliver asn packet t.on_deliver;
  if t.auto_reply then
    match Net.Packet.reply_to packet with
    | Some reply -> inject t ~src:asn reply
    | None -> ()

and forward_legacy t asn (packet : Net.Packet.t) =
  if is_local_addr t asn packet.Net.Packet.dst then deliver_local t asn packet
  else
    match Net.Packet.decr_ttl packet with
    | None -> t.data_stats.dropped <- t.data_stats.dropped + 1
    | Some packet -> (
      let fib = Net.Asn.Map.find asn t.fibs in
      match Net.Fib.lookup_value fib packet.Net.Packet.dst with
      | Some next_node ->
        if Net.Netsim.send t.net ~src:(node_of_asn_exn asn) ~dst:next_node (Payload.Data packet)
        then t.data_stats.forwarded <- t.data_stats.forwarded + 1
        else t.data_stats.dropped <- t.data_stats.dropped + 1
      | None -> t.data_stats.dropped <- t.data_stats.dropped + 1)

(* Start a packet at an AS, as if a local host emitted it. *)
and inject t ~src (packet : Net.Packet.t) =
  match Net.Asn.Map.find_opt src t.switches with
  | Some sw -> Sdn.Switch.handle_data sw ~from:(node_of_asn_exn src) packet
  | None -> (
    match Net.Asn.Map.find_opt src t.routers with
    | Some _ -> forward_legacy t src packet
    | None -> invalid_arg (Fmt.str "Network.inject: unknown AS %a" Net.Asn.pp src))

(* --- Construction ------------------------------------------------------- *)

let spec_relationship spec ~me ~neighbor =
  if Net.Asn.equal neighbor collector_asn then Bgp.Policy.Customer
  else begin
    match Topology.Spec.link_between spec me neighbor with
    | None -> Bgp.Policy.Unrestricted
    | Some l -> (
      match Topology.Spec.neighbor_role_of_link ~me l with
      | Topology.Spec.Customer -> Bgp.Policy.Customer
      | Topology.Spec.Provider -> Bgp.Policy.Provider
      | Topology.Spec.Peer -> Bgp.Policy.Peer
      | Topology.Spec.Sibling -> Bgp.Policy.Sibling
      | Topology.Spec.Unrestricted -> Bgp.Policy.Unrestricted)
  end

(* Runtime-aware relationship lookup: peerings added after construction
   take precedence over (absence in) the spec. *)
let relationship_for t ~me ~neighbor =
  match Hashtbl.find_opt t.rel_overrides (me, neighbor) with
  | Some rel -> rel
  | None -> spec_relationship t.spec ~me ~neighbor

let policy_for t ~me ~neighbor = Bgp.Policy.make (relationship_for t ~me ~neighbor)

let create ?(config = Config.default) ?(order = Engine.Sim.Seq) ?(owned = fun _ -> true)
    ~seed spec =
  (match Topology.Spec.validate spec with
  | [] -> ()
  | problems ->
    invalid_arg (Fmt.str "Network.create: invalid spec: %s" (String.concat "; " problems)));
  let sim = Engine.Sim.create ~order ~seed ~causal:config.Config.causal () in
  let net = Net.Netsim.create sim in
  let plan = Addressing.plan spec in
  let all_asns = Topology.Spec.asns spec in
  let sdn = Topology.Spec.sdn_asns spec in
  let sdn_set = Net.Asn.Set.of_list sdn in
  let is_sdn asn = Net.Asn.Set.mem asn sdn_set in
  (* Fabric nodes. *)
  List.iter
    (fun asn ->
      Net.Netsim.add_node net ~id:(Net.Asn.to_int asn) ~name:(Net.Asn.to_string asn))
    all_asns;
  Net.Netsim.add_node net ~id:collector_node ~name:"collector";
  if sdn <> [] then Net.Netsim.add_node net ~id:ctrl_node ~name:"ctrl";
  (* Fabric links: AS-AS per the spec, collector to everyone, control
     links to every switch. *)
  List.iter
    (fun (l : Topology.Spec.link_spec) ->
      let delay =
        match l.Topology.Spec.delay_us with
        | Some us -> Engine.Time.us us
        | None -> config.Config.default_link_delay
      in
      ignore
        (Net.Netsim.add_link ~delay net (Net.Asn.to_int l.Topology.Spec.a)
           (Net.Asn.to_int l.Topology.Spec.b)))
    (Topology.Spec.links spec);
  List.iter
    (fun asn ->
      ignore
        (Net.Netsim.add_link ~delay:config.Config.collector_link_delay net collector_node
           (Net.Asn.to_int asn)))
    all_asns;
  List.iter
    (fun asn ->
      ignore
        (Net.Netsim.add_link ~delay:config.Config.control_link_delay net ctrl_node
           (Net.Asn.to_int asn)))
    sdn;
  (* BGP transmission, optionally through the RFC 4271 binary codec (a
     semantic UPDATE may split into several wire messages, delivered
     individually, as a real TCP transport would). *)
  let send_bgp_via ~src ~dst msg =
    if not config.Config.wire_transport then
      Net.Netsim.send net ~src ~dst (Payload.Bgp msg)
    else begin
      match Bgp.Wire.decode_all (Bgp.Wire.encode_concat msg) with
      | Ok msgs ->
        List.fold_left
          (fun acc m -> Net.Netsim.send net ~src ~dst (Payload.Bgp m) && acc)
          true msgs
      | Error e -> failwith (Fmt.str "Network: wire codec failure: %a" Bgp.Wire.pp_error e)
    end
  in
  (* Collector. *)
  let collector =
    Bgp.Collector.create ~retention:config.Config.collector_retention ~sim
      ~asn:collector_asn ~node_id:collector_node
      ~router_id:(Net.Ipv4.addr_of_octets 10 255 255 1)
      ~send:(fun ~dst msg -> send_bgp_via ~src:collector_node ~dst msg)
      ()
  in
  (* Legacy routers. *)
  let routers =
    List.fold_left
      (fun acc asn ->
        if is_sdn asn then acc
        else begin
          let node_id = Net.Asn.to_int asn in
          let router =
            Bgp.Router.create ?damping:config.Config.damping ~sim ~asn ~node_id
              ~router_id:(plan.Addressing.router_addr asn) ~config:config.Config.bgp
              ~send:(fun ~dst msg -> send_bgp_via ~src:node_id ~dst msg)
              ()
          in
          Net.Asn.Map.add asn router acc
        end)
      Net.Asn.Map.empty all_asns
  in
  (* Configure router peers: spec neighbors + the collector. *)
  Net.Asn.Map.iter
    (fun asn router ->
      List.iter
        (fun neighbor ->
          Bgp.Router.add_peer router ~peer_asn:neighbor ~peer_node:(Net.Asn.to_int neighbor)
            ~policy:(Bgp.Policy.make (spec_relationship spec ~me:asn ~neighbor)))
        (Topology.Spec.neighbors spec asn);
      Bgp.Router.add_peer router ~peer_asn:collector_asn ~peer_node:collector_node
        ~policy:(Bgp.Policy.make Bgp.Policy.Customer);
      Bgp.Collector.add_peer collector ~peer_asn:asn ~peer_node:(Net.Asn.to_int asn))
    routers;
  (* Legacy FIBs driven by Loc-RIB changes. *)
  let fibs =
    Net.Asn.Map.map
      (fun _ -> (Net.Fib.create () : int Net.Fib.t))
      routers
  in
  Net.Asn.Map.iter
    (fun asn router ->
      let fib = Net.Asn.Map.find asn fibs in
      let node = Net.Asn.to_string asn in
      Bgp.Router.subscribe_best_change router (fun prefix best ->
          if Engine.Causal.enabled (Engine.Sim.causal sim) then
            Engine.Sim.annotate sim ~category:"fib.write" ~node
              ~label:(Net.Ipv4.prefix_to_string prefix) ();
          match best with
          | Some route -> (
            match Bgp.Route.from_peer route with
            | Some peer -> Net.Fib.insert fib prefix (Net.Asn.to_int peer)
            | None -> Net.Fib.remove fib prefix (* locally originated *))
          | None -> Net.Fib.remove fib prefix))
    routers;
  (* The record is needed by the switch/controller closures below; build
     it first with placeholders for the SDN parts, then fill them in. *)
  let t_ref = ref None in
  let the () = Option.get !t_ref in
  (* Cluster: speaker + controller + switches. *)
  let speaker, controller, switches =
    if sdn = [] then (None, None, Net.Asn.Map.empty)
    else begin
      let send_relay ~member ~neighbor msg =
        (* speaker -> member's border switch, encapsulated *)
        Net.Netsim.send net ~src:ctrl_node ~dst:(Net.Asn.to_int member)
          (Payload.Openflow
             (Sdn.Openflow.Bgp_relay
                { member; neighbor; direction = Sdn.Openflow.To_neighbor; payload = msg }))
      in
      let speaker =
        Cluster_ctl.Speaker.create ?liveness:config.Config.speaker_liveness ~sim ~send_relay ()
      in
      (* One speaker session per external peering of each member (legacy
         neighbors, members of *other* sub-networks are still neighbors on
         the wire but handled intra-cluster, and the collector). *)
      List.iter
        (fun member ->
          List.iter
            (fun neighbor ->
              if not (is_sdn neighbor) then
                Cluster_ctl.Speaker.add_session ?mrai_config:config.Config.speaker_mrai speaker
                  ~member ~neighbor ~member_addr:(plan.Addressing.router_addr member))
            (Topology.Spec.neighbors spec member);
          Cluster_ctl.Speaker.add_session ?mrai_config:config.Config.speaker_mrai speaker
            ~member ~neighbor:collector_asn
            ~member_addr:(plan.Addressing.router_addr member);
          Bgp.Collector.add_peer collector ~peer_asn:member ~peer_node:(Net.Asn.to_int member))
        sdn;
      let intra_links =
        List.filter_map
          (fun (l : Topology.Spec.link_spec) ->
            if is_sdn l.Topology.Spec.a && is_sdn l.Topology.Spec.b then
              Some (l.Topology.Spec.a, l.Topology.Spec.b)
            else None)
          (Topology.Spec.links spec)
      in
      let controller =
        Cluster_ctl.Controller.create ?flow_idle_timeout:config.Config.flow_idle_timeout
          ?flow_hard_timeout:config.Config.flow_hard_timeout ~sim
          ~config:config.Config.controller ~members:sdn ~speaker
          ~send_switch:(fun ~member msg ->
            Net.Netsim.send net ~src:ctrl_node ~dst:(Net.Asn.to_int member)
              (Payload.Openflow msg))
          ~node_of_asn:(fun asn -> node_of_asn (the ()) asn)
          ~asn_of_node:(fun node -> asn_of_node (the ()) node)
          ~addr_of_member:plan.Addressing.router_addr
          ~policy_of:(fun ~member ~neighbor -> policy_for (the ()) ~me:member ~neighbor)
          ~intra_links ()
      in
      (* Fallback egress for a degraded member: its lowest-numbered legacy
         neighbor whose link is still up (deterministic, re-picked by the
         switch when the chosen port dies). *)
      let link_is_up a b =
        match Net.Netsim.link_between net (Net.Asn.to_int a) (Net.Asn.to_int b) with
        | Some l -> Net.Link.is_up l
        | None -> false
      in
      let fallback_port_for member () =
        Topology.Spec.neighbors spec member
        |> List.filter (fun n -> (not (is_sdn n)) && link_is_up member n)
        |> List.sort Net.Asn.compare
        |> function
        | [] -> None
        | n :: _ -> Some (Net.Asn.to_int n)
      in
      let switches =
        List.fold_left
          (fun acc member ->
            let node_id = Net.Asn.to_int member in
            let sw =
              Sdn.Switch.create ?liveness:config.Config.switch_liveness
                ~fallback_port:(fallback_port_for member)
                ~on_relay_drop:(fun () -> Net.Netsim.note_drop net Net.Netsim.Session_down)
                ~sim ~asn:member ~node_id
                ~send_control:(fun msg ->
                  Net.Netsim.send net ~src:node_id ~dst:ctrl_node (Payload.Openflow msg))
                ~send_data:(fun ~dst pkt ->
                  Net.Netsim.send net ~src:node_id ~dst (Payload.Data pkt))
                ~send_bgp:(fun ~dst msg -> send_bgp_via ~src:node_id ~dst msg)
                ~asn_of_node:(fun node -> asn_of_node (the ()) node)
                ~node_of_asn:(fun asn -> node_of_asn (the ()) asn)
                ~is_local:(fun addr -> is_local_addr (the ()) member addr)
                ~deliver_local:(fun pkt -> deliver_local (the ()) member pkt)
                ()
            in
            Net.Asn.Map.add member sw acc)
          Net.Asn.Map.empty sdn
      in
      (Some speaker, Some controller, switches)
    end
  in
  let t =
    {
      sim;
      net;
      seed;
      spec;
      plan;
      config;
      routers;
      switches;
      fibs;
      local_prefixes = Hashtbl.create 16;
      collector;
      controller;
      speaker;
      data_stats = { forwarded = 0; dropped = 0; delivered = 0 };
      on_deliver = [];
      auto_reply = true;
      rel_overrides = Hashtbl.create 8;
      owned;
      dp_cache = None;
    }
  in
  t_ref := Some t;
  (* Data-plane series, synced from their owners at
     snapshot time (data_stats counts are monotonic, so exporting the
     delta since the previous collect keeps counter semantics). *)
  let m = Engine.Sim.metrics sim in
  let fwd_c =
    Engine.Metrics.counter m ~help:"data packets forwarded hop by hop"
      "net_data_forwarded_total"
  in
  let dlv_c =
    Engine.Metrics.counter m ~help:"data packets delivered to a local host"
      "net_data_delivered_total"
  in
  let drp_c =
    Engine.Metrics.counter m ~help:"data packets dropped (no route, TTL, dead link)"
      "net_data_dropped_total"
  in
  let exported = ref (0, 0, 0) in
  Engine.Metrics.on_collect m (fun () ->
      let f0, d0, r0 = !exported in
      Engine.Metrics.Counter.add fwd_c (t.data_stats.forwarded - f0);
      Engine.Metrics.Counter.add dlv_c (t.data_stats.delivered - d0);
      Engine.Metrics.Counter.add drp_c (t.data_stats.dropped - r0);
      exported := (t.data_stats.forwarded, t.data_stats.delivered, t.data_stats.dropped));
  (* Ingress: every fabric node's deliveries go through its component's
     runtime-node mailbox, so a crashed component refuses traffic at the
     fabric boundary (counted as [node_down] drops) instead of having a
     stale closure poke dead state. *)
  Net.Asn.Map.iter
    (fun asn router ->
      Net.Netsim.attach net (Net.Asn.to_int asn)
        (Engine.Node.port (Bgp.Router.node router) ~handler:(fun ~from msg ->
             match msg with
             | Payload.Bgp m -> Bgp.Router.handle_message router ~from m
             | Payload.Data p -> forward_legacy t asn p
             | Payload.Openflow _ -> ())))
    routers;
  Net.Asn.Map.iter
    (fun asn sw ->
      Net.Netsim.attach net (Net.Asn.to_int asn)
        (Engine.Node.port (Sdn.Switch.node sw) ~handler:(fun ~from msg ->
             match msg with
             | Payload.Bgp m -> Sdn.Switch.handle_bgp sw ~from m
             | Payload.Data p -> Sdn.Switch.handle_data sw ~from p
             | Payload.Openflow c ->
               if from = ctrl_node then Sdn.Switch.handle_control sw c)))
    switches;
  Net.Netsim.attach net collector_node
    (Engine.Node.port (Bgp.Collector.node collector) ~handler:(fun ~from msg ->
         match msg with
         | Payload.Bgp m -> Bgp.Collector.handle_message collector ~from m
         | Payload.Data _ | Payload.Openflow _ -> ()));
  (match controller with
  | Some ctrl ->
    (* The cluster head: the controller's runtime node gates the shared
       fabric node, so a controller crash also silences the speaker's
       relayed BGP (they are one emulated process, see
       {!crash_controller}). *)
    Net.Netsim.attach net ctrl_node
      (Engine.Node.port (Cluster_ctl.Controller.node ctrl) ~handler:(fun ~from:_ msg ->
           match msg with
           | Payload.Openflow m -> Cluster_ctl.Controller.handle_openflow ctrl m
           | Payload.Bgp _ | Payload.Data _ -> ()))
  | None -> ());
  (* A router crash also loses its kernel forwarding state. *)
  Net.Asn.Map.iter
    (fun asn router ->
      let fib = Net.Asn.Map.find asn fibs in
      Engine.Node.on_crash (Bgp.Router.node router) (fun () -> Net.Fib.clear fib))
    routers;
  (* Link watchers: session lifecycle for legacy routers, PORT_STATUS for
     switches.  Only installed on OWNED nodes: a non-owned replica must
     stay inert when a replicated link-state command flips a link, or it
     would run detection timers the owning shard also runs. *)
  Net.Asn.Map.iter
    (fun asn router ->
      if owned (Net.Asn.to_int asn) then
      (* Detection delays run on the router's node: if it crashes while
         the timer is pending, the epoch guard discards the stale event. *)
      let node = Bgp.Router.node router in
      Net.Netsim.set_link_watcher net (Net.Asn.to_int asn) (fun ~link ~peer ~up ->
          match asn_of_node t peer with
          | None -> ()
          | Some peer_asn ->
            if up then
              Engine.Node.schedule_after node
                config.Config.bgp.Bgp.Config.session_open_delay (fun () ->
                  if Net.Link.is_up link then Bgp.Router.open_session router peer_asn)
            else
              Engine.Node.schedule_after node
                config.Config.bgp.Bgp.Config.session_down_detect (fun () ->
                  if not (Net.Link.is_up link) then Bgp.Router.session_down router peer_asn)))
    routers;
  Net.Asn.Map.iter
    (fun _ sw ->
      if owned (Sdn.Switch.node_id sw) then
        Net.Netsim.set_link_watcher net (Sdn.Switch.node_id sw) (fun ~link:_ ~peer ~up ->
            if peer <> ctrl_node && Engine.Node.is_up (Sdn.Switch.node sw) then
              Sdn.Switch.port_change sw ~peer ~up))
    switches;
  t

let owned t node = t.owned node

(* Open all BGP sessions (idempotent).  In a sharded run only owned
   components come alive; the rest are inert replicas that exist so the
   construction-order RNG splits match the single-shard run. *)
let start t =
  Net.Asn.Map.iter
    (fun asn r -> if t.owned (Net.Asn.to_int asn) then Bgp.Router.start r)
    t.routers;
  if t.owned ctrl_node then Option.iter Cluster_ctl.Speaker.open_all t.speaker

(* --- Experiment-facing operations -------------------------------------- *)

let role t asn = Topology.Spec.role_of t.spec asn

(* Root a causal span per experiment action so the whole convergence
   fan-out (sessions, MRAI holds, recomputes, flow installs, FIB writes)
   hangs off one tree per action. *)
let action_span t ~category ~asn ~prefix f =
  if Engine.Causal.enabled (Engine.Sim.causal t.sim) then
    Engine.Sim.with_span t.sim ~category ~node:(Net.Asn.to_string asn)
      ~label:(Net.Ipv4.prefix_to_string prefix) f
  else f ()

let originate t asn prefix =
  action_span t ~category:"action.originate" ~asn ~prefix @@ fun () ->
  add_local_prefix t asn prefix;
  match Net.Asn.Map.find_opt asn t.routers with
  | Some router -> Bgp.Router.originate router prefix
  | None -> (
    match t.controller with
    | Some ctrl -> Cluster_ctl.Controller.originate ctrl ~member:asn prefix
    | None -> invalid_arg (Fmt.str "Network.originate: unknown AS %a" Net.Asn.pp asn))

let withdraw t asn prefix =
  action_span t ~category:"action.withdraw" ~asn ~prefix @@ fun () ->
  remove_local_prefix t asn prefix;
  match Net.Asn.Map.find_opt asn t.routers with
  | Some router -> Bgp.Router.withdraw_origin router prefix
  | None -> (
    match t.controller with
    | Some ctrl -> Cluster_ctl.Controller.withdraw_origin ctrl ~member:asn prefix
    | None -> invalid_arg (Fmt.str "Network.withdraw: unknown AS %a" Net.Asn.pp asn))

let fail_link t a b =
  if not (Net.Netsim.fail_link_between t.net (Net.Asn.to_int a) (Net.Asn.to_int b)) then
    invalid_arg
      (Fmt.str "Network.fail_link: no link %a<->%a" Net.Asn.pp a Net.Asn.pp b)

let recover_link t a b =
  if not (Net.Netsim.recover_link_between t.net (Net.Asn.to_int a) (Net.Asn.to_int b)) then
    invalid_arg
      (Fmt.str "Network.recover_link: no link %a<->%a" Net.Asn.pp a Net.Asn.pp b)

(* Partition one member from the cluster head (the control channel only:
   data-plane links are untouched, so the member's fallback route still
   carries traffic). *)
let fail_ctrl_link t member =
  if not (Net.Netsim.fail_link_between t.net (Net.Asn.to_int member) ctrl_node) then
    invalid_arg (Fmt.str "Network.fail_ctrl_link: %a has no control link" Net.Asn.pp member)

let recover_ctrl_link t member =
  if not (Net.Netsim.recover_link_between t.net (Net.Asn.to_int member) ctrl_node) then
    invalid_arg
      (Fmt.str "Network.recover_ctrl_link: %a has no control link" Net.Asn.pp member)

let ctrl_link_up t member =
  match Net.Netsim.link_between t.net (Net.Asn.to_int member) ctrl_node with
  | Some link -> Net.Link.is_up link
  | None -> false

(* Bring every failed link (AS-AS, control and collector) back up —
   chaos-schedule epilogue. *)
let heal_all_links t =
  List.iter
    (fun link -> if not (Net.Link.is_up link) then Net.Netsim.set_link_up t.net link true)
    (Net.Netsim.links t.net)

(* --- Component lifecycle (crash / restart) ------------------------------ *)

let unknown_as op asn = invalid_arg (Fmt.str "Network.%s: unknown AS %a" op Net.Asn.pp asn)

let crash_node t asn =
  match Net.Asn.Map.find_opt asn t.routers with
  | Some r -> Engine.Node.crash (Bgp.Router.node r)
  | None -> (
    match Net.Asn.Map.find_opt asn t.switches with
    | Some sw -> Engine.Node.crash (Sdn.Switch.node sw)
    | None -> unknown_as "crash_node" asn)

let restart_node t asn =
  match Net.Asn.Map.find_opt asn t.routers with
  | Some r -> Engine.Node.restart (Bgp.Router.node r)
  | None -> (
    match Net.Asn.Map.find_opt asn t.switches with
    | Some sw ->
      Engine.Node.restart (Sdn.Switch.node sw);
      (* the switch came back with an empty flow table, so the
         controller's installed-rule shadow is stale until it re-pushes *)
      Option.iter (fun c -> Cluster_ctl.Controller.resync_member c asn) t.controller
    | None -> unknown_as "restart_node" asn)

(* The cluster head is one emulated host running both processes: crashing
   it takes the controller and the speaker down together. *)
let crash_controller t =
  match (t.controller, t.speaker) with
  | Some ctrl, Some sp ->
    Engine.Node.crash (Cluster_ctl.Controller.node ctrl);
    Engine.Node.crash (Cluster_ctl.Speaker.node sp)
  | _ -> invalid_arg "Network.crash_controller: no SDN cluster in this topology"

let restart_controller t =
  match (t.controller, t.speaker) with
  | Some ctrl, Some sp ->
    (* controller first, so the speaker's session resync finds a live
       update handler behind [on_update] *)
    Engine.Node.restart (Cluster_ctl.Controller.node ctrl);
    Engine.Node.restart (Cluster_ctl.Speaker.node sp)
  | _ -> invalid_arg "Network.restart_controller: no SDN cluster in this topology"

(* Dynamically add an inter-AS peering mid-experiment — the framework's
   "dynamically changing the topology" objective.  [rel] is expressed as
   in topology specs ([C2p] = [a] is the customer of [b]). *)
let add_peering ?(rel = Topology.Spec.Open) ?delay t a b =
  if not (Topology.Spec.mem t.spec a) then
    invalid_arg (Fmt.str "Network.add_peering: unknown %a" Net.Asn.pp a);
  if not (Topology.Spec.mem t.spec b) then
    invalid_arg (Fmt.str "Network.add_peering: unknown %a" Net.Asn.pp b);
  let delay = Option.value delay ~default:t.config.Config.default_link_delay in
  (* Netsim rejects duplicate links, so existing peerings are caught here. *)
  ignore (Net.Netsim.add_link ~delay t.net (Net.Asn.to_int a) (Net.Asn.to_int b));
  let probe = Topology.Spec.link ~rel a b in
  let to_policy_rel = function
    | Topology.Spec.Customer -> Bgp.Policy.Customer
    | Topology.Spec.Provider -> Bgp.Policy.Provider
    | Topology.Spec.Peer -> Bgp.Policy.Peer
    | Topology.Spec.Sibling -> Bgp.Policy.Sibling
    | Topology.Spec.Unrestricted -> Bgp.Policy.Unrestricted
  in
  Hashtbl.replace t.rel_overrides (a, b)
    (to_policy_rel (Topology.Spec.neighbor_role_of_link ~me:a probe));
  Hashtbl.replace t.rel_overrides (b, a)
    (to_policy_rel (Topology.Spec.neighbor_role_of_link ~me:b probe));
  let configure_endpoint me other =
    match Net.Asn.Map.find_opt me t.routers with
    | Some router ->
      Bgp.Router.add_peer router ~peer_asn:other ~peer_node:(Net.Asn.to_int other)
        ~policy:(Bgp.Policy.make (relationship_for t ~me ~neighbor:other));
      Bgp.Router.open_session router other
    | None -> (
      (* [me] is an SDN member *)
      if Net.Asn.Map.mem other t.switches then begin
        (* member-to-member: grow the controller's switch graph *)
        match t.controller with
        | Some ctrl ->
          Cluster_ctl.Controller.handle_openflow ctrl
            (Sdn.Openflow.Port_status
               { switch_asn = me; port = Net.Asn.to_int other; up = true })
        | None -> ()
      end
      else
        match t.speaker with
        | Some speaker ->
          Cluster_ctl.Speaker.add_session ?mrai_config:t.config.Config.speaker_mrai speaker
            ~member:me ~neighbor:other
            ~member_addr:(t.plan.Addressing.router_addr me);
          Cluster_ctl.Speaker.open_session speaker ~member:me ~neighbor:other
        | None -> ())
  in
  configure_endpoint a b;
  configure_endpoint b a

(* Run the simulation until no events remain (the network is idle: all
   protocol activity, including MRAI timers, has quiesced) or safety
   limits are hit. *)
let settle ?(max_events = 10_000_000) t =
  match Engine.Sim.run ~max_events t.sim with
  | Engine.Sim.Exhausted -> Engine.Sim.now t.sim
  | Engine.Sim.Reached_limit -> failwith "Network.settle: event limit hit (divergence?)"
  | Engine.Sim.Reached_time _ -> assert false

let run_until t time = ignore (Engine.Sim.run ~until:time t.sim)

let now t = Engine.Sim.now t.sim

let link_up t a b =
  match Net.Netsim.link_between t.net (Net.Asn.to_int a) (Net.Asn.to_int b) with
  | Some link -> Net.Link.is_up link
  | None -> false

let link_delay t a b =
  match Net.Netsim.link_between t.net (Net.Asn.to_int a) (Net.Asn.to_int b) with
  | Some link -> Some (Net.Link.delay link)
  | None -> None

(* Forwarding-state introspection for the connectivity walker. *)
type forwarding = Local | Next of int | No_route

let forwarding_at t asn (addr : Net.Ipv4.addr) =
  if is_local_addr t asn addr then Local
  else
    match Net.Asn.Map.find_opt asn t.switches with
    | Some sw -> (
      match Sdn.Flow_table.lookup (Sdn.Switch.table sw) addr with
      | Some { Sdn.Flow.action = Sdn.Flow.Output port; _ } -> Next port
      | Some { Sdn.Flow.action = Sdn.Flow.Drop; _ }
      | Some { Sdn.Flow.action = Sdn.Flow.To_controller; _ }
      | None -> No_route)
    | None -> (
      match Net.Asn.Map.find_opt asn t.fibs with
      | Some fib -> (
        match Net.Fib.lookup_value fib addr with
        | Some node -> Next node
        | None -> No_route)
      | None -> No_route)

(* Compile the composed forwarding state — FIBs, flow tables, local
   delivery sets, link liveness — into a frozen [Net.Dataplane] snapshot
   over dense node indices.  The snapshot mirrors [forwarding_at] plus
   the [link_up] check of the connectivity walker, but reads tables
   without the counting lookups, so probing it perturbs neither flow
   packet counters nor miss metrics.  Legacy FIB values and flow
   [Output] ports (next fabric node ids) are compiled into dense indices
   so the hot path never maps ids per hop.

   A node's table is compiled only when its live table's generation
   moved since the last snapshot; otherwise the new snapshot shares the
   previous table, which nothing ever writes, so older snapshots stay
   exact for the state they were taken from.  Local sets and link
   liveness are cheap and are read afresh every time. *)
let dp_cache t =
  match t.dp_cache with
  | Some c -> c
  | None ->
    let dense_asns = Array.of_list (Topology.Spec.asns t.spec) in
    let sources =
      Array.map
        (fun asn ->
          match Net.Asn.Map.find_opt asn t.switches with
          | Some sw -> Member (Sdn.Switch.table sw)
          | None -> Legacy (Net.Asn.Map.find asn t.fibs))
        dense_asns
    in
    let n = Array.length dense_asns in
    let c =
      {
        layout = Net.Dataplane.layout (Array.map Net.Asn.to_int dense_asns);
        dense_asns;
        router_addrs = Array.map t.plan.Addressing.router_addr dense_asns;
        sources;
        gens = Array.make n (-1);
        tables = Array.make n Net.Dataplane.no_route;
      }
    in
    t.dp_cache <- Some c;
    c

let dataplane_snapshot t =
  let c = dp_cache t in
  let dp = Net.Dataplane.create c.layout in
  let code_of_node node =
    match asn_of_node t node with
    | Some next_asn ->
      let j = Net.Dataplane.index_of dp (Net.Asn.to_int next_asn) in
      if j >= 0 then j else Net.Dataplane.drop
    | None -> Net.Dataplane.drop
  in
  let code_of_action = function
    | Sdn.Flow.Output port -> code_of_node port
    | Sdn.Flow.Drop | Sdn.Flow.To_controller -> Net.Dataplane.drop
  in
  Array.iteri
    (fun i source ->
      let gen =
        match source with
        | Legacy fib -> Net.Fib.generation fib
        | Member table -> Sdn.Flow_table.generation table
      in
      if gen <> c.gens.(i) then begin
        c.tables.(i) <-
          (match source with
          | Legacy fib -> Net.Dataplane.fib_table fib code_of_node
          | Member table ->
            Net.Dataplane.rule_table
              (List.map
                 (fun (r : Sdn.Flow.rule) ->
                   (r.Sdn.Flow.match_prefix, code_of_action r.Sdn.Flow.action))
                 (Sdn.Flow_table.entries_sorted table)));
        c.gens.(i) <- gen
      end;
      Net.Dataplane.set_table dp i c.tables.(i);
      Net.Dataplane.add_local_addr dp i c.router_addrs.(i);
      Net.Ipv4.Prefix_set.iter (Net.Dataplane.add_local dp i) !(local_set t c.dense_asns.(i)))
    c.sources;
  Net.Netsim.iter_links t.net (fun link ->
      if Net.Link.is_up link then begin
        let a, b = Net.Link.endpoints link in
        let i = Net.Dataplane.index_of dp a and j = Net.Dataplane.index_of dp b in
        if i >= 0 && j >= 0 then begin
          Net.Dataplane.set_link dp i j true;
          Net.Dataplane.set_link dp j i true
        end
      end);
  dp

(* --- Whole-network checkpointing ---------------------------------------- *)

(* A checkpoint is the construction recipe (seed + spec + config) plus
   everything that diverged since: link states, every runtime node's
   captured state (lifecycle, armed timers, component blob), the fabric's
   loss RNG position and in-flight messages, and the framework-owned data
   planes.  Restoring rebuilds the network from the recipe and overwrites
   the divergent state — the restored simulator's clock restarts at zero,
   with captured events re-scheduled at their original absolute instants.

   Known limits (see DESIGN.md "Node runtime"): telemetry counters are
   not carried over, flow-rule idle/hard timeouts and damping re-check
   events are not re-armed, and same-instant event ties across the
   checkpoint boundary follow restore re-scheduling order. *)

type checkpoint = {
  ck_seed : int;
  ck_spec : Topology.Spec.t;
  ck_config : Config.t;
  ck_time : Engine.Time.t;
  ck_links : (Net.Link.id * bool) list;
  ck_routers : (Net.Asn.t * Engine.Node.state) list;
  ck_switches : (Net.Asn.t * Engine.Node.state) list;
  ck_collector : Engine.Node.state;
  ck_controller : Engine.Node.state option;
  ck_speaker : Engine.Node.state option;
  ck_net_rng : Engine.Rng.t;
  ck_in_flight : Payload.t Net.Netsim.in_flight list;
  ck_fibs : (Net.Asn.t * (Net.Ipv4.prefix * int) list) list;
  ck_locals : (Net.Asn.t * Net.Ipv4.prefix list) list;
}

let checkpoint_time ck = ck.ck_time

let checkpoint t =
  if Hashtbl.length t.rel_overrides > 0 then
    invalid_arg "Network.checkpoint: runtime-added peerings are not checkpointable";
  {
    ck_seed = t.seed;
    ck_spec = t.spec;
    ck_config = t.config;
    ck_time = Engine.Sim.now t.sim;
    ck_links =
      List.map (fun l -> (Net.Link.id l, Net.Link.is_up l)) (Net.Netsim.links t.net);
    ck_routers =
      List.map
        (fun (asn, r) -> (asn, Engine.Node.state (Bgp.Router.node r)))
        (Net.Asn.Map.bindings t.routers);
    ck_switches =
      List.map
        (fun (asn, sw) -> (asn, Engine.Node.state (Sdn.Switch.node sw)))
        (Net.Asn.Map.bindings t.switches);
    ck_collector = Engine.Node.state (Bgp.Collector.node t.collector);
    ck_controller =
      Option.map (fun c -> Engine.Node.state (Cluster_ctl.Controller.node c)) t.controller;
    ck_speaker =
      Option.map (fun s -> Engine.Node.state (Cluster_ctl.Speaker.node s)) t.speaker;
    ck_net_rng = Engine.Rng.copy (Net.Netsim.rng t.net);
    ck_in_flight = Net.Netsim.in_flight t.net;
    ck_fibs =
      List.map (fun (asn, fib) -> (asn, Net.Fib.entries fib)) (Net.Asn.Map.bindings t.fibs);
    ck_locals =
      Hashtbl.fold
        (fun asn s acc -> (asn, Net.Ipv4.Prefix_set.elements !s) :: acc)
        t.local_prefixes []
      |> List.sort (fun (a, _) (b, _) -> Net.Asn.compare a b);
  }

let restore ck =
  let t = create ~config:ck.ck_config ~seed:ck.ck_seed ck.ck_spec in
  (* Link states first, silently: watchers must not see these as runtime
     transitions. *)
  List.iter
    (fun (id, up) ->
      match Net.Netsim.link_by_id t.net id with
      | Some link -> Net.Link.set_up_internal link up
      | None -> ())
    ck.ck_links;
  (* Component states; each restore re-arms that component's timers and
     re-schedules its pending work at the captured absolute instants. *)
  List.iter
    (fun (asn, st) ->
      match Net.Asn.Map.find_opt asn t.routers with
      | Some r -> Engine.Node.restore_state (Bgp.Router.node r) st
      | None -> ())
    ck.ck_routers;
  List.iter
    (fun (asn, st) ->
      match Net.Asn.Map.find_opt asn t.switches with
      | Some sw -> Engine.Node.restore_state (Sdn.Switch.node sw) st
      | None -> ())
    ck.ck_switches;
  Engine.Node.restore_state (Bgp.Collector.node t.collector) ck.ck_collector;
  (match (t.controller, ck.ck_controller) with
  | Some c, Some st -> Engine.Node.restore_state (Cluster_ctl.Controller.node c) st
  | _ -> ());
  (match (t.speaker, ck.ck_speaker) with
  | Some s, Some st -> Engine.Node.restore_state (Cluster_ctl.Speaker.node s) st
  | _ -> ());
  (* The wire: loss-RNG position, then the captured in-flight messages. *)
  Engine.Rng.assign ~from:ck.ck_net_rng (Net.Netsim.rng t.net);
  List.iter (Net.Netsim.inject_in_flight t.net) ck.ck_in_flight;
  (* Framework-owned data planes. *)
  List.iter
    (fun (asn, entries) ->
      match Net.Asn.Map.find_opt asn t.fibs with
      | None -> ()
      | Some fib ->
        Net.Fib.clear fib;
        List.iter (fun (p, v) -> Net.Fib.insert fib p v) entries)
    ck.ck_fibs;
  List.iter
    (fun (asn, prefixes) ->
      let s = local_set t asn in
      s := Net.Ipv4.Prefix_set.of_list prefixes)
    ck.ck_locals;
  (* No [start]: sessions are already open per the captured states. *)
  t
