(** The emulated network fabric: nodes, links and delayed message delivery,
    parametric in the protocol message type. *)

type 'a handler = from:int -> 'a -> unit

type link_watcher = link:Link.t -> peer:int -> up:bool -> unit

type drop_reason = Link_down | Loss | Queue | No_handler | Node_down | Session_down
(** Why a delivery was silently dropped: link down at delivery time,
    probabilistic loss, queue overflow (link drop-tail or node mailbox),
    no receiver attached, receiver node crashed, or discarded by a
    protocol layer because the session/control channel it belongs to is
    down (accounted via {!note_drop}). *)

val drop_reason_label : drop_reason -> string
(** The [reason] label value used on
    [net_messages_dropped_total{reason=...}]. *)

type 'a t

val create : Engine.Sim.t -> 'a t

val sim : 'a t -> Engine.Sim.t

val rng : 'a t -> Engine.Rng.t
(** The fabric's loss-decision stream (checkpointing captures its
    position). *)

val add_node : 'a t -> id:int -> name:string -> unit
(** @raise Invalid_argument on duplicate ids. *)

val mem_node : 'a t -> int -> bool

val node_name : 'a t -> int -> string

val node_ids : 'a t -> int list
(** Sorted ascending. *)

val set_handler : 'a t -> int -> 'a handler -> unit
(** Install a raw handler closure (nodes without any sink drop traffic).
    Lifecycle-blind — prefer {!attach}. *)

val attach : 'a t -> int -> 'a Engine.Node.port -> unit
(** Attach an [Engine.Node] mailbox port as the node's sink: deliveries to
    a crashed node are dropped (reason [Node_down]) and mailbox overflow
    is dropped (reason [Queue]) instead of being handed to stale state. *)

val attached_node : 'a t -> int -> Engine.Node.t option
(** The runtime node behind a {!attach}ed sink, if any. *)

val set_link_watcher : 'a t -> int -> link_watcher -> unit
(** Called when an adjacent link changes state. *)

val add_link :
  ?delay:Engine.Time.span ->
  ?loss:float ->
  ?bandwidth_bps:int ->
  ?queue_limit:int ->
  'a t ->
  int ->
  int ->
  Link.t
(** At most one link per node pair.  [bandwidth_bps] enables serialization
    delay and drop-tail queuing (see {!Link.admit}).
    @raise Invalid_argument on duplicates or unknown nodes. *)

val link_by_id : 'a t -> Link.id -> Link.t option

val link_between : 'a t -> int -> int -> Link.t option

val links : 'a t -> Link.t list
(** Sorted by link id. *)

val iter_links : 'a t -> (Link.t -> unit) -> unit
(** Every link, in no particular order, without building a list. *)

val neighbors : 'a t -> int -> int list

val set_link_up : 'a t -> Link.t -> bool -> unit
(** Flip link state and notify both endpoints' watchers.  Messages already
    in flight on a failing link are dropped at delivery time. *)

val fail_link_between : 'a t -> int -> int -> bool
(** [false] if no such link exists. *)

val recover_link_between : 'a t -> int -> int -> bool

val send : ?size_bits:int -> 'a t -> src:int -> dst:int -> 'a -> bool
(** Queue a message for delivery after the link's (queuing +
    serialization +) propagation delay; [false] when there is no up link
    between the nodes.  [size_bits] (default 512) only matters on
    bandwidth-limited links; a drop-tail loss still returns [true] — the
    sender cannot tell. *)

val drops : 'a t -> drop_reason -> int
(** Messages dropped for [reason] since creation. *)

val note_drop : 'a t -> drop_reason -> unit
(** Account a drop that never reached a wire (protocol-layer discard,
    e.g. a BGP relay thrown away while its session is down). *)

(** {1 Sharded execution}

    When the owning sim runs in {!Engine.Sim.Canonical} order, every
    admitted send draws a per-directed-channel sequence number and its
    delivery event is keyed [(kclass = 1, knode = src, kseq)] — a key
    every partitioning assigns identically, because only the shard
    owning [src] ever sends from it and FIFO links deliver in send
    order.  A remote route diverts sends whose destination lives on
    another shard; the receiving shard re-schedules them with
    {!inject_remote} under the very same key. *)

type 'a remote = {
  r_src : int;
  r_dst : int;
  r_at : Engine.Time.t;  (** absolute delivery instant *)
  r_seq : int;  (** the sender's per-channel sequence (canonical key) *)
  r_payload : 'a;
}

val set_remote_route : 'a t -> local:(int -> bool) -> route:('a remote -> unit) -> unit
(** Divert sends to nodes for which [local] is [false]: instead of
    scheduling a local delivery, the fully-formed {!remote} (with its
    delivery instant and canonical sequence already fixed) is handed to
    [route] for barrier exchange.  Send-side accounting (admission,
    queue drops, [net_messages_sent_total]) still happens here; delivery
    accounting happens on the shard that injects. *)

val inject_remote : 'a t -> 'a remote -> unit
(** Schedule a delivery received from another shard at its original
    instant and canonical key.  The caller is responsible for re-interning
    any domain-local hash-consed payload state first.
    @raise Invalid_argument if no link joins the endpoints. *)

type 'a in_flight = { src : int; dst : int; deliver_at : Engine.Time.t; payload : 'a }

val in_flight : 'a t -> 'a in_flight list
(** Messages on the wire (sent, not yet delivered), in send order —
    the wire contents a checkpoint must capture. *)

val inject_in_flight : 'a t -> 'a in_flight -> unit
(** Re-schedule a captured delivery at its original absolute instant
    (restore path).
    @raise Invalid_argument if no link joins the endpoints. *)

val up_graph : 'a t -> Graph.t
(** Snapshot of the topology restricted to links that are currently up. *)
