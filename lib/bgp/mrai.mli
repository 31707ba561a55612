(** The outbound UPDATE queue of one BGP session — a router peer or a
    cluster-speaker session; the only place either packs or paces its
    route changes.

    Every queue belongs to its owner's {!batch}: changes enqueued inside
    a {!with_batch} scope leave as one packed UPDATE per queue when the
    outermost scope closes, queues in ascending rank; outside a scope a
    change leaves at once.  A queue created with [pace] also runs the
    MinRouteAdvertisementInterval: the first change after an idle period
    sends immediately and arms the timer; further changes coalesce until
    expiry; explicit withdrawals bypass the timer unless configured
    otherwise.  A queue without [pace] only packs (the cluster speaker's
    default: ExaBGP relays what the controller hands it at once). *)

type batch
(** One owner's batch scope: a depth and the queues it has to flush. *)

val batch : unit -> batch

val with_batch : batch -> (unit -> 'a) -> 'a
(** Run [f] in a batching scope.  Scopes nest; when the outermost one
    closes, every queue dirtied inside it flushes once, in ascending
    rank.  While a paced queue's timer runs only its exempt withdrawals
    go out (pending changes stay for timer expiry), and its timer arms
    only when throttle-subject changes were flushed. *)

type pace = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;  (** the queue's own jitter stream *)
  config : Config.t;
  name : string;  (** of the MRAI timer *)
}

type t

val create : ?pace:pace -> batch -> rank:int -> send:(Message.update -> unit) -> t
(** A queue flushed by [batch] at position [rank] (ranks are unique per
    batch: peer ASN for router peers, configuration order for speaker
    sessions).  Without [pace] the queue never arms a timer, draws no
    jitter and registers or counts no metric. *)

val enqueue_announce : t -> Net.Ipv4.prefix -> Attrs.t -> unit

val enqueue_withdraw : t -> Net.Ipv4.prefix -> unit

val pending_count : t -> int

val is_throttled : t -> bool
(** True while the MRAI timer is running (never for an unpaced queue). *)

val reset : t -> unit
(** Drop pending changes and stop the timer (session reset). *)

type state
(** Opaque checkpoint of the pending set and, for a paced queue, its
    armed expiry and jitter-stream position. *)

val state : t -> state

val restore : t -> state -> unit
(** Reinstall [state] into a queue created with the same pacing:
    re-arms the timer at its recorded absolute expiry. *)
