(* The emulated network fabric: nodes, links, and delayed message delivery.

   Parametric in the message payload so the protocol layers (BGP, OpenFlow,
   data packets) define their own message types without this module
   depending on them.  Messages in flight when their link fails are dropped
   at delivery time, like frames on a cut wire.

   Receivers are attached either as a raw handler closure (legacy, kept for
   tests) or as an [Engine.Node] port, which adds lifecycle awareness: a
   down node's traffic is dropped with reason [Node_down] instead of being
   handed to stale state.

   Every silent drop is accounted per reason under
   [net_messages_dropped_total{reason=...}]; the unlabeled aggregate series
   is kept (registered eagerly, as before) so existing dashboards and the
   byte-identical export guarantee for drop-free runs are preserved — the
   labeled children only appear once a drop of that reason happens. *)

type 'a handler = from:int -> 'a -> unit

type link_watcher = link:Link.t -> peer:int -> up:bool -> unit

type 'a sink = Handler of 'a handler | Port of 'a Engine.Node.port

type drop_reason = Link_down | Loss | Queue | No_handler | Node_down | Session_down

let drop_reason_label = function
  | Link_down -> "link_down"
  | Loss -> "loss"
  | Queue -> "queue"
  | No_handler -> "no_handler"
  | Node_down -> "node_down"
  | Session_down -> "session_down"

type 'a node = {
  id : int;
  name : string;
  mutable sink : 'a sink option;
  mutable link_watcher : link_watcher option;
}

type 'a flight = {
  f_id : int;
  f_src : int;
  f_dst : int;
  f_at : Engine.Time.t;
  f_payload : 'a;
}

type 'a in_flight = { src : int; dst : int; deliver_at : Engine.Time.t; payload : 'a }

type 'a remote = {
  r_src : int;
  r_dst : int;
  r_at : Engine.Time.t;
  r_seq : int;
  r_payload : 'a;
}

type 'a t = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;
  canonical : bool;
  nodes : (int, 'a node) Hashtbl.t;
  links : (Link.id, Link.t) Hashtbl.t;
  by_pair : (int * int, Link.id) Hashtbl.t;
  mutable next_link_id : int;
  flights : (int, 'a flight) Hashtbl.t;
  mutable next_flight_id : int;
  (* per directed (src, dst) channel send sequence — canonical mode only.
     Counts admitted sends, so delivery order on a FIFO link equals send
     order and the sequence is independent of how nodes are partitioned
     across shards (only the owning shard ever sends from a node). *)
  chan_seqs : (int * int, int ref) Hashtbl.t;
  mutable remote : ((int -> bool) * ('a remote -> unit)) option;
  sent_c : Engine.Metrics.Counter.t;
  delivered_c : Engine.Metrics.Counter.t;
  dropped_c : Engine.Metrics.Counter.t;
  dropped_by : (drop_reason, Engine.Metrics.Counter.t) Hashtbl.t;
  drop_counts : (drop_reason, int) Hashtbl.t;
}

let create sim =
  let m = Engine.Sim.metrics sim in
  {
    sim;
    rng = Engine.Rng.split (Engine.Sim.rng sim);
    canonical = Engine.Sim.order sim = Engine.Sim.Canonical;
    nodes = Hashtbl.create 64;
    links = Hashtbl.create 64;
    by_pair = Hashtbl.create 64;
    next_link_id = 0;
    flights = Hashtbl.create 64;
    next_flight_id = 0;
    chan_seqs = Hashtbl.create 64;
    remote = None;
    sent_c =
      Engine.Metrics.counter m ~help:"messages accepted onto a link" "net_messages_sent_total";
    delivered_c =
      Engine.Metrics.counter m ~help:"messages handed to a receiver"
        "net_messages_delivered_total";
    dropped_c =
      Engine.Metrics.counter m
        ~help:"messages lost to link failure, loss, queue overflow or no handler"
        "net_messages_dropped_total";
    dropped_by = Hashtbl.create 8;
    drop_counts = Hashtbl.create 8;
  }

let sim t = t.sim

let rng t = t.rng

let pair u v = if u < v then (u, v) else (v, u)

let add_node t ~id ~name =
  if Hashtbl.mem t.nodes id then invalid_arg (Fmt.str "Netsim.add_node: duplicate id %d" id);
  Hashtbl.replace t.nodes id { id; name; sink = None; link_watcher = None }

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Netsim: unknown node %d" id)

let mem_node t id = Hashtbl.mem t.nodes id

let node_name t id = (node t id).name

let node_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort Int.compare

let set_handler t id h = (node t id).sink <- Some (Handler h)

let attach t id port = (node t id).sink <- Some (Port port)

let attached_node t id =
  match (node t id).sink with Some (Port p) -> Some (Engine.Node.port_node p) | _ -> None

let set_link_watcher t id w = (node t id).link_watcher <- Some w

let add_link ?(delay = Engine.Time.ms 2) ?(loss = 0.0) ?bandwidth_bps ?queue_limit t u v =
  ignore (node t u);
  ignore (node t v);
  if Hashtbl.mem t.by_pair (pair u v) then
    invalid_arg (Fmt.str "Netsim.add_link: duplicate link %d<->%d" u v);
  let id = t.next_link_id in
  t.next_link_id <- id + 1;
  let link = Link.make ?bandwidth_bps ?queue_limit ~id ~a:u ~b:v ~delay ~loss () in
  Hashtbl.replace t.links id link;
  Hashtbl.replace t.by_pair (pair u v) id;
  link

let link_by_id t id = Hashtbl.find_opt t.links id

let link_between t u v =
  Option.bind (Hashtbl.find_opt t.by_pair (pair u v)) (fun id -> Hashtbl.find_opt t.links id)

let links t =
  Hashtbl.fold (fun _ l acc -> l :: acc) t.links []
  |> List.sort (fun a b -> Int.compare (Link.id a) (Link.id b))

let iter_links t f = Hashtbl.iter (fun _ l -> f l) t.links

let neighbors t id =
  List.filter_map
    (fun l ->
      let a, b = Link.endpoints l in
      if a = id then Some b else if b = id then Some a else None)
    (links t)

let set_link_up t link up =
  if Link.is_up link <> up then begin
    Link.set_up_internal link up;
    let a, b = Link.endpoints link in
    let notify endpoint peer =
      match (node t endpoint).link_watcher with
      | Some w -> w ~link ~peer ~up
      | None -> ()
    in
    notify a b;
    notify b a
  end

let fail_link_between t u v =
  match link_between t u v with
  | Some l ->
    set_link_up t l false;
    true
  | None -> false

let recover_link_between t u v =
  match link_between t u v with
  | Some l ->
    set_link_up t l true;
    true
  | None -> false

(* The per-reason children are registered on first drop of that reason so
   drop-free runs export exactly the series they always did.  [note_drop]
   is the link-less entry point: protocol layers use it to account drops
   that never reach a wire (e.g. BGP relays discarded while a session or
   its controller channel is down). *)
let note_drop t reason =
  Engine.Metrics.Counter.inc t.dropped_c;
  let labelled =
    match Hashtbl.find_opt t.dropped_by reason with
    | Some c -> c
    | None ->
      let c =
        Engine.Metrics.counter (Engine.Sim.metrics t.sim)
          ~help:"messages lost to link failure, loss, queue overflow or no handler"
          ~labels:[ ("reason", drop_reason_label reason) ]
          "net_messages_dropped_total"
      in
      Hashtbl.replace t.dropped_by reason c;
      c
  in
  Engine.Metrics.Counter.inc labelled;
  Hashtbl.replace t.drop_counts reason
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.drop_counts reason))

let drop t link reason =
  Link.note_dropped link;
  note_drop t reason

let drops t reason = Option.value ~default:0 (Hashtbl.find_opt t.drop_counts reason)

let deliver t link ~src ~dst payload () =
  if not (Link.is_up link) then drop t link Link_down
  else if Link.loss link > 0.0 && Engine.Rng.chance t.rng (Link.loss link) then
    drop t link Loss
  else begin
    match (node t dst).sink with
    | None -> drop t link No_handler
    | Some (Handler h) ->
      Link.note_delivered link;
      Engine.Metrics.Counter.inc t.delivered_c;
      h ~from:src payload
    | Some (Port p) ->
      if not (Engine.Node.is_up (Engine.Node.port_node p)) then drop t link Node_down
      else begin
        Link.note_delivered link;
        Engine.Metrics.Counter.inc t.delivered_c;
        if not (Engine.Node.deliver p ~from:src payload) then drop t link Queue
      end
  end

(* Each scheduled delivery is tracked in [flights] until it fires, so a
   checkpoint can capture the wire contents ([in_flight]) and a restore
   can put them back ([inject_in_flight]). *)
let schedule_flight ?(kseq = 0) t link ~src ~dst deliver_at payload =
  let id = t.next_flight_id in
  t.next_flight_id <- id + 1;
  Hashtbl.replace t.flights id
    { f_id = id; f_src = src; f_dst = dst; f_at = deliver_at; f_payload = payload };
  let key =
    if t.canonical then { Engine.Sim.kclass = 1; knode = src; kseq }
    else Engine.Sim.default_key
  in
  ignore
    (Engine.Sim.schedule_at ~category:"net.deliver" ~key t.sim deliver_at (fun () ->
         Hashtbl.remove t.flights id;
         deliver t link ~src ~dst payload ()))

let next_chan_seq t ~src ~dst =
  match Hashtbl.find_opt t.chan_seqs (src, dst) with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.replace t.chan_seqs (src, dst) (ref 0);
    0

let set_remote_route t ~local ~route = t.remote <- Some (local, route)

let inject_remote t { r_src; r_dst; r_at; r_seq; r_payload } =
  match link_between t r_src r_dst with
  | None -> invalid_arg (Fmt.str "Netsim.inject_remote: no link %d<->%d" r_src r_dst)
  | Some link -> schedule_flight ~kseq:r_seq t link ~src:r_src ~dst:r_dst r_at r_payload

(* [size_bits] matters only on bandwidth-limited links, where it adds
   serialization delay and FIFO queuing (drop-tail when the direction's
   queue is full). *)
let send ?(size_bits = 8 * 64) t ~src ~dst payload =
  match link_between t src dst with
  | None -> false
  | Some link when not (Link.is_up link) -> false
  | Some link -> (
    match Link.admit link ~now:(Engine.Sim.now t.sim) ~dst ~size_bits with
    | None ->
      drop t link Queue;
      true (* accepted by the sender, lost in the queue *)
    | Some delivery_at ->
      Engine.Metrics.Counter.inc t.sent_c;
      let kseq = if t.canonical then next_chan_seq t ~src ~dst else 0 in
      (match t.remote with
      | Some (local, route) when not (local dst) ->
        (* cross-shard: hand to the exchange layer, delivery is scheduled
           by [inject_remote] on the owning shard with the same key *)
        route { r_src = src; r_dst = dst; r_at = delivery_at; r_seq = kseq; r_payload = payload }
      | Some _ | None -> schedule_flight ~kseq t link ~src ~dst delivery_at payload);
      true)

let in_flight t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.flights []
  |> List.sort (fun a b -> Int.compare a.f_id b.f_id)
  |> List.map (fun f ->
         { src = f.f_src; dst = f.f_dst; deliver_at = f.f_at; payload = f.f_payload })

let inject_in_flight t { src; dst; deliver_at; payload } =
  match link_between t src dst with
  | None -> invalid_arg (Fmt.str "Netsim.inject_in_flight: no link %d<->%d" src dst)
  | Some link -> schedule_flight t link ~src ~dst deliver_at payload

(* Current topology restricted to links that are up. *)
let up_graph t =
  let g = Graph.create () in
  List.iter (fun id -> Graph.add_node g id) (node_ids t);
  List.iter
    (fun l ->
      if Link.is_up l then begin
        let a, b = Link.endpoints l in
        Graph.add_edge g a b
      end)
    (links t);
  g
