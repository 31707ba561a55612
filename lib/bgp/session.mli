(** One BGP peering's session, shared by {!Router} peers and the cluster
    speaker: the collapsed RFC 4271 FSM, OPEN and hold negotiation,
    KEEPALIVE/hold liveness, the deterministic backoff reconnect, crash
    reset and checkpointing. *)

type state = Idle | Connect | Established

val to_string : state -> string

val to_int : state -> int
(** Stable encoding for metrics gauges: Idle = 0, Connect = 1,
    Established = 2. *)

type backoff = {
  retry_initial : Engine.Time.span;
  retry_multiplier : float;
  retry_max : Engine.Time.span;
  max_attempts : int;
}

val default_backoff : backoff
(** 1 s initial, doubling, capped at 32 s, at most 6 retries. *)

val delay : backoff -> Engine.Rng.t -> attempt:int -> Engine.Time.span
(** Delay before retry [attempt] (0-based): [retry_initial *
    retry_multiplier^attempt] capped at [retry_max], jittered
    multiplicatively in [0.75, 1.0] from [rng]. *)

type keepalive = { interval : Engine.Time.span; hold_time : Engine.Time.span }

type t
(** Per peer: the flags, the peer's hold proposal, the backoff position
    and the two liveness timers. *)

(** What a router or the speaker shares across its sessions. *)
type 'peer owner = {
  node : Engine.Node.t;  (** owns the liveness timers and reconnect events *)
  rng : Engine.Rng.t;  (** keepalive jitter and backoff draws *)
  keepalives : keepalive option;  (** [None]: propose hold 0, arm nothing *)
  reconnect : backoff option;  (** [None]: never retry an OPEN *)
  category : string;  (** event category of the liveness timers *)
  hold_expirations : Engine.Metrics.Counter.t;
  session : 'peer -> t;
  identity : 'peer -> Net.Asn.t * Net.Ipv4.addr;  (** AS and router id in our OPEN *)
  timer_name : string -> 'peer -> string;  (** of the ["keepalive"] / ["hold"] timer *)
  send : 'peer -> Message.t -> unit;
  teardown : 'peer -> unit;  (** the owner's session-down path *)
}

val create : unit -> t

val state : t -> state
(** [Established] dominates, an unanswered OPEN is [Connect]. *)

val established : t -> bool

val open_ : 'peer owner -> 'peer -> unit
(** Send an OPEN unless one is outstanding; with [reconnect], retry it. *)

val receive_open : 'peer owner -> 'peer -> hold_time:int -> bool
(** Record the peer's hold proposal, answer with our OPEN if none is
    outstanding, establish, and arm liveness when the negotiated hold
    (the smaller proposal; 0 on either side disables) is non-zero.
    [true] when the session has just come up. *)

val touch : 'peer owner -> t -> unit
(** Inbound traffic restarts an established session's hold timer. *)

val down : t -> bool
(** Clear the flags and stop liveness; [false] when already idle. *)

val reset : t -> unit
(** Crash: forget the session (the node runtime voids the timers). *)

type checkpoint

val checkpoint : t -> checkpoint

val restore : 'peer owner -> 'peer -> checkpoint -> unit
(** Re-arms liveness for an established session. *)
