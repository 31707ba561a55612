(* One BGP peering's session: the collapsed RFC 4271 FSM, OPEN and hold
   negotiation, KEEPALIVE/hold liveness, the backoff reconnect and the
   session's checkpoint.

   The emulation keeps a deliberately collapsed version of the RFC 4271
   FSM: the TCP-level states (Connect/Active/OpenSent/OpenConfirm) fold
   into a single [Connect] state because the fabric either delivers the
   OPEN or it does not — there is no half-open TCP handshake to model.
   The observable states are

     Idle ──open──▶ Connect ──OPEN rcvd──▶ Established
       ▲               │  ▲                      │
       └───────────────┘  └──backoff retry       │
       ◀──────── hold expiry / NOTIFICATION ─────┘

   Each [Router] peer and each cluster-speaker session holds a [t]; the
   router or speaker passes its [owner] (configuration and callbacks shared
   by all its sessions) to every operation.  What differs stays with the
   owner: the router purges its RIBs on teardown and retries OPENs on a
   backoff schedule; the speaker clears its Adj-RIB-Out, tells the
   controller, and never retries (ExaBGP waits for the neighbour). *)

type state = Idle | Connect | Established

let to_string = function
  | Idle -> "idle"
  | Connect -> "connect"
  | Established -> "established"

(* Stable numeric encoding for the bgp_session_state gauge. *)
let to_int = function Idle -> 0 | Connect -> 1 | Established -> 2

(* Exponential-backoff schedule for session reconnects (Quagga's
   connect-retry with the usual doubling). *)
type backoff = {
  retry_initial : Engine.Time.span;
  retry_multiplier : float;
  retry_max : Engine.Time.span;
  max_attempts : int;  (** give up (stay Idle) after this many retries *)
}

let default_backoff =
  {
    retry_initial = Engine.Time.sec 1;
    retry_multiplier = 2.0;
    retry_max = Engine.Time.sec 32;
    max_attempts = 6;
  }

(* Delay before retry [attempt] (0-based): initial * multiplier^attempt,
   capped at [retry_max], multiplicatively jittered in [0.75, 1.0] from
   the supplied stream — deterministic for a fixed seed. *)
let delay b rng ~attempt =
  let scaled =
    Engine.Time.span_scale b.retry_initial (b.retry_multiplier ** float_of_int attempt)
  in
  let base = Engine.Time.min scaled b.retry_max in
  Engine.Rng.jitter_span rng base ~lo:0.75 ~hi:1.0

type keepalive = { interval : Engine.Time.span; hold_time : Engine.Time.span }

type t = {
  mutable established : bool;
  mutable open_sent : bool;
  mutable peer_hold : int; (* hold time (s) the peer proposed in its OPEN; 0 = none *)
  mutable retry_attempt : int; (* reconnect backoff position *)
  mutable keepalive : Engine.Timer.t option; (* periodic KEEPALIVE emission *)
  mutable hold : Engine.Timer.t option; (* liveness: reset by any inbound message *)
}

type 'peer owner = {
  node : Engine.Node.t;
  rng : Engine.Rng.t;
  keepalives : keepalive option;
  reconnect : backoff option;
  category : string;
  hold_expirations : Engine.Metrics.Counter.t;
  session : 'peer -> t;
  identity : 'peer -> Net.Asn.t * Net.Ipv4.addr;
  timer_name : string -> 'peer -> string;
  send : 'peer -> Message.t -> unit;
  teardown : 'peer -> unit;
}

let create () =
  { established = false; open_sent = false; peer_hold = 0; retry_attempt = 0;
    keepalive = None; hold = None }

let state s = if s.established then Established else if s.open_sent then Connect else Idle

let established s = s.established

(* The hold time (whole seconds) we propose in our OPENs; 0 when
   keepalives are off — RFC 4271 lets either side disable liveness. *)
let our_hold_secs o =
  match o.keepalives with
  | None -> 0
  | Some { hold_time; _ } -> max 1 (int_of_float (Engine.Time.to_sec_f hold_time))

(* RFC 4271 §4.2 negotiation: the session hold time is the smaller of the
   two proposals, and 0 on either side disables liveness entirely. *)
let negotiated_hold o s =
  let ours = our_hold_secs o in
  if ours = 0 || s.peer_hold = 0 then None else Some (Engine.Time.sec (min ours s.peer_hold))

let send_open o peer =
  let asn, router_id = o.identity peer in
  o.send peer (Message.Open { asn; router_id; hold_time = our_hold_secs o })

let stop_liveness s =
  Option.iter Engine.Timer.cancel s.keepalive;
  Option.iter Engine.Timer.cancel s.hold

let down s =
  if s.established || s.open_sent then begin
    s.established <- false;
    s.open_sent <- false;
    stop_liveness s;
    true
  end
  else false

(* KEEPALIVE emission + hold-timer supervision.  Armed only when both
   sides proposed a non-zero hold time; the emission interval is jittered
   per cycle (Quagga jitters keepalives the same way it jitters MRAI) and
   clamped to a third of the negotiated hold so three losses are needed
   to kill a healthy session.  The timers are made on first use and kept
   across sessions, so checkpoint restore finds them by name. *)
let rec start_liveness o peer s =
  match (o.keepalives, negotiated_hold o s) with
  | None, _ | _, None -> ()
  | Some { interval; _ }, Some hold_time ->
    let interval =
      Engine.Time.min interval (Engine.Time.span_scale hold_time (1.0 /. 3.0))
    in
    let jittered () = Engine.Rng.jitter_span o.rng interval ~lo:0.75 ~hi:1.0 in
    let timer kind callback =
      Engine.Node.timer ~category:o.category o.node ~name:(o.timer_name kind peer) ~callback
    in
    let keepalive =
      match s.keepalive with
      | Some timer -> timer
      | None ->
        let emit () =
          if s.established then begin
            o.send peer Message.Keepalive;
            Option.iter (fun timer -> Engine.Timer.start timer (jittered ())) s.keepalive
          end
        in
        let timer = timer "keepalive" emit in
        s.keepalive <- Some timer;
        timer
    in
    let hold =
      match s.hold with
      | Some timer -> timer
      | None ->
        let timer = timer "hold" (fun () -> hold_expired o peer) in
        s.hold <- Some timer;
        timer
    in
    Engine.Timer.start keepalive (jittered ());
    Engine.Timer.start hold hold_time

and hold_expired o peer =
  Engine.Metrics.Counter.inc o.hold_expirations;
  o.send peer (Message.Notification "hold timer expired");
  o.teardown peer;
  (* The neighbor may be rebooting rather than gone: retry the session on
     the backoff schedule (an eventual NOTIFICATION+OPEN from the peer's
     own restart path also re-establishes, whichever comes first). *)
  match o.reconnect with
  | None -> ()
  | Some backoff ->
    let s = o.session peer in
    let delay = delay backoff o.rng ~attempt:0 in
    Engine.Node.schedule_after ~category:"bgp.reconnect" o.node delay (fun () ->
        if not (s.established || s.open_sent) then open_ o peer)

(* Deterministic exponential-backoff retry of an unanswered OPEN.  The
   chain stops when the session establishes, when a teardown resets the
   flags (link reported down), or when the attempt budget is exhausted
   (the peer's own restart OPEN can still revive the session). *)
and schedule_retry o peer s =
  match o.reconnect with
  | None -> ()
  | Some backoff ->
    let attempt = s.retry_attempt in
    if attempt < backoff.max_attempts then begin
      let delay = delay backoff o.rng ~attempt in
      Engine.Node.schedule_after ~category:"bgp.reconnect" o.node delay (fun () ->
          if s.open_sent && not s.established then begin
            s.retry_attempt <- attempt + 1;
            send_open o peer;
            schedule_retry o peer s
          end)
    end

and open_ o peer =
  let s = o.session peer in
  if not s.open_sent then begin
    s.open_sent <- true;
    s.retry_attempt <- 0;
    send_open o peer;
    schedule_retry o peer s
  end

let receive_open o peer ~hold_time =
  let s = o.session peer in
  s.peer_hold <- hold_time;
  if not s.open_sent then begin
    s.open_sent <- true;
    send_open o peer
  end;
  if s.established then false
  else begin
    s.established <- true;
    s.retry_attempt <- 0;
    start_liveness o peer s;
    true
  end

(* Any inbound traffic proves the peer alive. *)
let touch o s =
  match (negotiated_hold o s, s.hold) with
  | Some hold_time, Some hold when s.established -> Engine.Timer.start hold hold_time
  | _, _ -> ()

(* Crash: the session state is volatile; the owned timers are voided by
   the node runtime itself. *)
let reset s =
  s.established <- false;
  s.open_sent <- false;
  s.peer_hold <- 0;
  s.retry_attempt <- 0

(* Only the flags and the backoff position travel; the timers are the
   live session's own (the node re-arms them by name). *)
type checkpoint = t

let checkpoint s = { s with keepalive = None; hold = None }

let restore o peer ck =
  let s = o.session peer in
  s.established <- ck.established;
  s.open_sent <- ck.open_sent;
  s.peer_hold <- ck.peer_hold;
  s.retry_attempt <- ck.retry_attempt;
  if s.established then start_liveness o peer s
