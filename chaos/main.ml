(* Chaos drill, run by the `@chaos-smoke` alias: crash the cluster head
   mid-run, verify graceful degradation onto the legacy fallback,
   restart, verify resync.  Exits non-zero on the first violated
   assertion.  (Seeded randomized-fault campaigns are `hybridsim chaos`.)

   Usage:
     main.exe                 # drill with fallback, then without
     main.exe --no-fallback   # blackhole variant only                 *)

let fail fmt = Fmt.kstr (fun s -> prerr_endline ("chaos: FAIL: " ^ s); exit 1) fmt

let check what ok = if not ok then fail "%s" what

let quiet = Engine.Time.sec 3

let wait_quiet what conv =
  match Framework.Convergence.wait_quiet ~quiet ~max_wait:(Engine.Time.sec 120) conv with
  | `Quiet t -> t
  | `Timeout _ -> fail "%s: control plane never went quiet" what

let hybrid_clique n members =
  let spec = Topology.Artificial.clique n in
  let asns = Topology.Spec.asns spec in
  Topology.Spec.with_sdn spec (List.filteri (fun i _ -> i >= n - members) asns)

let config_for ~fallback =
  if fallback then Framework.Config.failure_test
  else { Framework.Config.failure_test with switch_liveness = None }

(* The head-crash drill.  With [fallback] the member switches detect the
   dead controller via echo liveness and degrade onto a legacy default
   route, so they RETAIN reachability — including to a prefix announced
   while the head is down.  Without it they blackhole unknown traffic
   until the restart (the pre-hardening behavior). *)
let drill ~fallback () =
  let n = 8 and members = 4 in
  let spec = hybrid_clique n members in
  let net = Framework.Network.create ~config:(config_for ~fallback) ~seed:2014 spec in
  let conv = Framework.Convergence.attach net in
  Framework.Network.start net;
  let plan = Framework.Network.plan net in
  let origin = Topology.Artificial.asn 0 in
  let origin2 = Topology.Artificial.asn 1 in
  let member = Topology.Artificial.asn (n - 1) in
  let reach ~src ~dst = Framework.Monitor.reachable net ~src ~dst in
  let originate asn =
    Framework.Network.originate net asn (plan.Framework.Addressing.origin_prefix asn)
  in
  let member_switch () =
    match Framework.Network.switch net member with
    | Some sw -> sw
    | None -> fail "AS%a has no switch" Net.Asn.pp member
  in
  originate origin;
  ignore (wait_quiet "initial convergence" conv);
  check "member reaches the origin after initial convergence"
    (reach ~src:member ~dst:origin);
  (* Kill the cluster head, then keep routing changing while it is down:
     the new announcement converges among the legacy routers, and every
     relay toward the dead head is refused at the fabric. *)
  Framework.Network.crash_controller net;
  originate origin2;
  Framework.Network.run_until net
    (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec 8));
  let fabric = Framework.Network.fabric net in
  check "deliveries to the dead head are dropped as node_down"
    (Net.Netsim.drops fabric Net.Netsim.Node_down > 0);
  if fallback then begin
    check "member switch degraded onto its legacy fallback"
      (Sdn.Switch.fallback_active (member_switch ()));
    check "member keeps reaching the origin while the head is down"
      (reach ~src:member ~dst:origin);
    check "member reaches the route announced DURING the outage (fallback)"
      (reach ~src:member ~dst:origin2)
  end
  else begin
    check "no fallback without switch liveness"
      (not (Sdn.Switch.fallback_active (member_switch ())));
    check "--no-fallback: the mid-outage announcement blackholes at the member"
      (not (reach ~src:member ~dst:origin2))
  end;
  (* Restart: the speaker's NOTIFICATION-then-OPEN resync pulls external
     routes back in, the controller reinstalls flow rules and releases
     the switches from fallback with RESYNC_DONE. *)
  Framework.Network.restart_controller net;
  (* Let the resync handshake begin before asking for quiet —
     [wait_quiet] returns immediately when the pre-restart plane was
     already stable. *)
  Framework.Network.run_until net
    (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec 1));
  ignore (wait_quiet "post-restart reconvergence" conv);
  check "member reaches the origin after the restart" (reach ~src:member ~dst:origin);
  check "member learned the route announced during the outage"
    (reach ~src:member ~dst:origin2);
  check "RESYNC_DONE released the member from fallback"
    (not (Sdn.Switch.fallback_active (member_switch ())));
  (* The post-restart control/data plane must match a run that never
     crashed at all (modulo clocks and counters, which the rendering
     excludes). *)
  let baseline =
    let net' = Framework.Network.create ~config:(config_for ~fallback) ~seed:2014 spec in
    let conv' = Framework.Convergence.attach net' in
    Framework.Network.start net';
    Framework.Network.originate net' origin
      (plan.Framework.Addressing.origin_prefix origin);
    Framework.Network.originate net' origin2
      (plan.Framework.Addressing.origin_prefix origin2);
    ignore (wait_quiet "baseline convergence" conv');
    Framework.Chaos.render_state net'
  in
  check "post-resync state matches a never-crashed run"
    (String.equal (Framework.Chaos.render_state net) baseline);
  if fallback then begin
    (* Run past the flow hard timeout so expiry (and the controller's
       reinstallation) shows up in the export. *)
    Framework.Network.run_until net
      (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec 50));
    let snap =
      Engine.Metrics.snapshot
        (Engine.Sim.metrics (Framework.Network.sim net))
        ~at:(Framework.Network.now net)
    in
    match Engine.Metrics.parse_prometheus (Engine.Metrics.to_prometheus snap) with
    | Error e -> fail "metrics export does not parse: %s" e
    | Ok samples ->
      let has name = List.exists (fun s -> s.Engine.Metrics.p_name = name) samples in
      List.iter
        (fun name -> check (name ^ " exported") (has name))
        [
          "node_lifecycle_transitions_total";
          "net_messages_dropped_total";
          "bgp_session_state";
          "bgp_hold_expirations_total";
          "controller_failovers_total";
          "flow_rules_expired_total";
        ]
  end;
  Fmt.pr "chaos: drill ok (fallback=%b)@." fallback

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let fallback = not (List.mem "--no-fallback" args) in
  drill ~fallback ();
  if fallback then drill ~fallback:false ();
  print_endline "chaos-smoke: head crash degraded gracefully, resync reconverged, export clean"
