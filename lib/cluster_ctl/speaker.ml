(* The cluster BGP speaker (the ExaBGP role).

   It terminates every external eBGP peering of every cluster member —
   while preserving the member's AS identity on the wire — and relays
   routing information between the legacy neighbors and the controller.
   Messages physically travel encapsulated over the speaker's link to the
   member's border switch (Switch.handle_control forwards them out).

   The speaker keeps a per-session Adj-RIB-Out so the controller's
   (re)announcements are deduplicated.  Each session sends through a
   [Bgp.Mrai] queue, as a router peer does, and all of them share one
   batch scope: a controller recomputation leaves as one packed UPDATE
   per session, sessions in configuration order.  The queue is unpaced
   by default — ExaBGP emits updates as instructed; the controller's
   delayed recomputation is the rate limiter — and paced like a
   conventional BGP implementation's when a session is given an MRAI
   config.  Each session's FSM, hold negotiation and keepalive/hold
   liveness are [Bgp.Session]'s, as for a router peer. *)

module Pt = Net.Ipv4.Prefix_table

type session_key = Net.Asn.t * Net.Asn.t (* member, neighbor *)

type session = {
  member : Net.Asn.t;
  neighbor : Net.Asn.t;
  member_addr : Net.Ipv4.addr;
  session : Bgp.Session.t;
  adj_out : Bgp.Attrs.t Pt.t;
  mrai : Bgp.Mrai.t;
}

type t = {
  sim : Engine.Sim.t;
  node : Engine.Node.t;
  rng : Engine.Rng.t;
  send_relay : member:Net.Asn.t -> neighbor:Net.Asn.t -> Bgp.Message.t -> bool;
  sessions : (session_key, session) Hashtbl.t;
  mutable session_order : session list; (* newest first; see [iter_configured] *)
  mutable on_update :
    member:Net.Asn.t -> neighbor:Net.Asn.t -> Bgp.Message.update -> unit;
  mutable on_session : member:Net.Asn.t -> neighbor:Net.Asn.t -> up:bool -> unit;
  batch : Bgp.Mrai.batch;
  sessions_owner : session Bgp.Session.owner;
}

let node t = t.node

let set_handlers t ~on_update ~on_session =
  t.on_update <- on_update;
  t.on_session <- on_session

let find t ~member ~neighbor = Hashtbl.find_opt t.sessions (member, neighbor)

(* Sessions in configuration order.  Registration conses onto
   [session_order]; this walks it oldest-first without copying it. *)
let iter_configured t f =
  let rec go = function
    | [] -> ()
    | s :: older ->
      go older;
      f s
  in
  go t.session_order

let iter_sessions t f = iter_configured t (fun s -> f ~member:s.member ~neighbor:s.neighbor)

let sessions t = List.rev_map (fun s -> (s.member, s.neighbor)) t.session_order

let sessions_of t member =
  List.fold_left
    (fun acc s -> if Net.Asn.equal s.member member then s.neighbor :: acc else acc)
    [] t.session_order

let session_established t ~member ~neighbor =
  match find t ~member ~neighbor with
  | Some s -> Bgp.Session.established s.session
  | None -> false

let send_wire t (s : session) msg =
  ignore (t.send_relay ~member:s.member ~neighbor:s.neighbor msg)

let add_session ?(mrai_config : Bgp.Config.t option) t ~member ~neighbor ~member_addr =
  let key = (member, neighbor) in
  if Hashtbl.mem t.sessions key then
    invalid_arg
      (Fmt.str "Speaker.add_session: duplicate %a/%a" Net.Asn.pp member Net.Asn.pp neighbor);
  let pace =
    Option.map
      (fun config ->
        {
          Bgp.Mrai.sim = t.sim;
          rng = Engine.Rng.split t.rng;
          config;
          name = Fmt.str "speaker-mrai-%a-%a" Net.Asn.pp member Net.Asn.pp neighbor;
        })
      mrai_config
  in
  let self = ref None in
  let send update =
    match !self with
    | Some s when Bgp.Session.established s.session -> send_wire t s (Bgp.Message.Update update)
    | Some _ | None -> ()
  in
  (* Ranked by configuration order: the batch flushes sessions in it. *)
  let mrai = Bgp.Mrai.create ?pace t.batch ~rank:(Hashtbl.length t.sessions) ~send in
  let s =
    { member; neighbor; member_addr; session = Bgp.Session.create (); adj_out = Pt.create ();
      mrai }
  in
  self := Some s;
  Hashtbl.replace t.sessions key s;
  t.session_order <- s :: t.session_order

let with_batch t f = Bgp.Mrai.with_batch t.batch f

let open_session t ~member ~neighbor =
  match find t ~member ~neighbor with
  | None ->
    invalid_arg
      (Fmt.str "Speaker.open_session: unknown %a/%a" Net.Asn.pp member Net.Asn.pp neighbor)
  | Some s -> Bgp.Session.open_ t.sessions_owner s

let open_all t = iter_configured t (Bgp.Session.open_ t.sessions_owner)

let session_down t ~member ~neighbor =
  match find t ~member ~neighbor with
  | None -> ()
  | Some s ->
    if Bgp.Session.down s.session then begin
      Pt.clear s.adj_out;
      Bgp.Mrai.reset s.mrai;
      t.on_session ~member ~neighbor ~up:false
    end

(* A BGP message relayed in from a border switch. *)
let handle_relay t ~member ~neighbor (msg : Bgp.Message.t) =
  match find t ~member ~neighbor with
  | None -> ()
  | Some s -> (
    Bgp.Session.touch t.sessions_owner s.session;
    match msg with
    | Bgp.Message.Open { hold_time; _ } ->
      if Bgp.Session.receive_open t.sessions_owner s ~hold_time then
        t.on_session ~member ~neighbor ~up:true
    | Bgp.Message.Keepalive -> ()
    | Bgp.Message.Notification _ -> session_down t ~member ~neighbor
    | Bgp.Message.Update u ->
      if Bgp.Session.established s.session then begin
        if Engine.Causal.enabled (Engine.Sim.causal t.sim) then
          Engine.Sim.annotate t.sim ~category:"speaker.relay" ~node:"speaker"
            ~label:(Net.Asn.to_string neighbor) ();
        t.on_update ~member ~neighbor u
      end)

(* Controller-driven advertisement with Adj-RIB-Out deduplication. *)
let announce t ~member ~neighbor prefix attrs =
  match find t ~member ~neighbor with
  | None -> ()
  | Some s when not (Bgp.Session.established s.session) -> ()
  | Some s -> (
    match Pt.find prefix s.adj_out with
    | Some prev when Bgp.Attrs.wire_equal prev attrs -> ()
    | Some _ | None ->
      Pt.set prefix attrs s.adj_out;
      Bgp.Mrai.enqueue_announce s.mrai prefix attrs)

let withdraw t ~member ~neighbor prefix =
  match find t ~member ~neighbor with
  | None -> ()
  | Some s when not (Bgp.Session.established s.session) -> ()
  | Some s ->
    if Pt.remove prefix s.adj_out then Bgp.Mrai.enqueue_withdraw s.mrai prefix

let advertised t ~member ~neighbor prefix =
  Option.bind (find t ~member ~neighbor) (fun s -> Pt.find prefix s.adj_out)

(* --- Lifecycle and checkpointing --------------------------------------- *)

type Engine.Node.blob +=
  | Speaker_state of
      Engine.Rng.t
      * (session_key * Bgp.Session.checkpoint * (Net.Ipv4.prefix * Bgp.Attrs.t) list
        * Bgp.Mrai.state)
        list

let snapshot t =
  let sessions =
    List.rev_map
      (fun s ->
        ( (s.member, s.neighbor),
          Bgp.Session.checkpoint s.session,
          Pt.entries s.adj_out,
          Bgp.Mrai.state s.mrai ))
      t.session_order
  in
  Speaker_state (Engine.Rng.copy t.rng, sessions)

let restore t = function
  | Speaker_state (rng, sessions) ->
    Engine.Rng.assign ~from:rng t.rng;
    List.iter
      (fun (key, session, adj_out, mrai) ->
        match Hashtbl.find_opt t.sessions key with
        | None -> ()
        | Some s ->
          Pt.clear s.adj_out;
          List.iter (fun (p, a) -> Pt.set p a s.adj_out) adj_out;
          Bgp.Mrai.restore s.mrai mrai;
          Bgp.Session.restore t.sessions_owner s session)
      sessions
  | _ -> invalid_arg "Speaker.restore: foreign snapshot blob"

(* A crashed speaker silently loses every session (the ExaBGP process
   died); peers only find out when the restart's NOTIFICATION reaches
   them.  The controller is not notified here — when the speaker crashes
   alone the framework decides, and when the whole cluster head crashes
   the controller loses its RIB anyway. *)
let on_crashed t =
  Hashtbl.iter
    (fun _ s ->
      Bgp.Session.reset s.session;
      Pt.clear s.adj_out;
      Bgp.Mrai.reset s.mrai)
    t.sessions

(* Restart: NOTIFICATION-then-OPEN on every configured session, so the
   remote router tears the old session down (flushing our stale routes)
   and answers the OPEN like a cold start. *)
let on_restarted t =
  iter_configured t (fun s ->
      send_wire t s (Bgp.Message.Notification "speaker restarted");
      Bgp.Session.open_ t.sessions_owner s)

let create ?liveness ~sim ~send_relay () =
  let rng = Engine.Rng.split (Engine.Sim.rng sim) in
  let node = Engine.Node.create ~kind:"speaker" ~rng sim ~name:"speaker" in
  let rec t =
    {
      sim;
      node;
      rng;
      send_relay;
      sessions = Hashtbl.create 32;
      session_order = [];
      on_update = (fun ~member:_ ~neighbor:_ _ -> ());
      on_session = (fun ~member:_ ~neighbor:_ ~up:_ -> ());
      batch = Bgp.Mrai.batch ();
      sessions_owner;
    }
  (* No [reconnect]: like ExaBGP, the speaker waits for the neighbour's
     OPEN (or the link watcher) instead of retrying its own. *)
  and sessions_owner =
    {
      Bgp.Session.node;
      rng;
      keepalives = liveness;
      reconnect = None;
      category = "speaker.liveness";
      hold_expirations =
        Engine.Metrics.counter (Engine.Sim.metrics sim)
          ~help:"sessions torn down by hold-timer expiry" ~labels:[ ("node", "speaker") ]
          "bgp_hold_expirations_total";
      session = (fun s -> s.session);
      identity = (fun s -> (s.member, s.member_addr));
      timer_name =
        (fun kind s ->
          Fmt.str "speaker-%s-%a-%a" kind Net.Asn.pp s.member Net.Asn.pp s.neighbor);
      send = (fun s msg -> send_wire t s msg);
      teardown = (fun s -> session_down t ~member:s.member ~neighbor:s.neighbor);
    }
  in
  Engine.Node.on_crash t.node (fun () -> on_crashed t);
  Engine.Node.on_start t.node (fun ~first -> if not first then on_restarted t);
  Engine.Node.set_snapshot t.node (fun () -> snapshot t);
  Engine.Node.set_restore t.node (restore t);
  Engine.Node.start t.node;
  t
