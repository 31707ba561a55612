(* Cluster_ctl.Speaker in isolation: session FSM, relaying, dedup. *)

let asn = Net.Asn.of_int

let member = asn 65010

let neighbor = asn 65001

let nh = Net.Ipv4.addr_of_octets 10 0 10 1

let p s = Option.get (Net.Ipv4.prefix_of_string s)

let setup () =
  let sim = Engine.Sim.create () in
  let wire = ref [] in
  let speaker =
    Cluster_ctl.Speaker.create ~sim ~send_relay:(fun ~member ~neighbor msg ->
        wire := (member, neighbor, msg) :: !wire;
        true)
      ()
  in
  let updates = ref [] and sessions = ref [] in
  Cluster_ctl.Speaker.set_handlers speaker
    ~on_update:(fun ~member ~neighbor u -> updates := (member, neighbor, u) :: !updates)
    ~on_session:(fun ~member ~neighbor ~up -> sessions := (member, neighbor, up) :: !sessions);
  Cluster_ctl.Speaker.add_session speaker ~member ~neighbor ~member_addr:nh;
  (speaker, wire, updates, sessions)

let open_msg = Bgp.Message.Open { asn = neighbor; router_id = nh; hold_time = 0 }

let update_msg =
  Bgp.Message.Update
    { Bgp.Message.announced = [ (p "1.2.3.0/24", Bgp.Attrs.make ~as_path:[ neighbor ] ~next_hop:nh ()) ];
      withdrawn = [] }

let test_open_handshake_preserves_identity () =
  let speaker, wire, _, sessions = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  (match !wire with
  | [ (m, n, Bgp.Message.Open { asn = open_asn; _ }) ] ->
    Alcotest.(check int) "to the right member switch" 65010 (Net.Asn.to_int m);
    Alcotest.(check int) "toward neighbor" 65001 (Net.Asn.to_int n);
    Alcotest.(check int) "speaks AS the member" 65010 (Net.Asn.to_int open_asn)
  | _ -> Alcotest.fail "expected OPEN out");
  Alcotest.(check (list (triple int int bool))) "controller notified up"
    [ (65010, 65001, true) ]
    (List.map (fun (m, n, up) -> (Net.Asn.to_int m, Net.Asn.to_int n, up)) !sessions);
  Alcotest.(check bool) "established" true
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor)

let test_update_relayed_to_controller () =
  let speaker, _, updates, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor update_msg;
  Alcotest.(check int) "one update" 1 (List.length !updates)

let test_update_before_open_dropped () =
  let speaker, _, updates, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor update_msg;
  Alcotest.(check int) "dropped when not established" 0 (List.length !updates)

let test_announce_dedup () =
  let speaker, wire, _, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  let before = List.length !wire in
  let attrs = Bgp.Attrs.make ~as_path:[ member ] ~next_hop:nh () in
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs;
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs;
  Alcotest.(check int) "identical announcement suppressed" (before + 1) (List.length !wire);
  let attrs2 = Bgp.Attrs.prepend attrs (asn 65020) in
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs2;
  Alcotest.(check int) "changed announcement sent" (before + 2) (List.length !wire)

let test_withdraw_only_if_advertised () =
  let speaker, wire, _, _ = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  let before = List.length !wire in
  Cluster_ctl.Speaker.withdraw speaker ~member ~neighbor (p "9.9.9.0/24");
  Alcotest.(check int) "nothing to withdraw" before (List.length !wire);
  let attrs = Bgp.Attrs.make ~as_path:[ member ] ~next_hop:nh () in
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs;
  Cluster_ctl.Speaker.withdraw speaker ~member ~neighbor (p "9.9.9.0/24");
  Alcotest.(check int) "announce + withdraw" (before + 2) (List.length !wire);
  Alcotest.(check bool) "adj-out cleared" true
    (Cluster_ctl.Speaker.advertised speaker ~member ~neighbor (p "9.9.9.0/24") = None)

let test_session_down_clears_state () =
  let speaker, _, _, sessions = setup () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor open_msg;
  let attrs = Bgp.Attrs.make ~as_path:[ member ] ~next_hop:nh () in
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs;
  Cluster_ctl.Speaker.session_down speaker ~member ~neighbor;
  Alcotest.(check bool) "down" false
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor);
  Alcotest.(check bool) "adj-out flushed" true
    (Cluster_ctl.Speaker.advertised speaker ~member ~neighbor (p "9.9.9.0/24") = None);
  Alcotest.(check bool) "down notified" true
    (List.exists (fun (_, _, up) -> not up) !sessions)

let test_duplicate_session_rejected () =
  let speaker, _, _, _ = setup () in
  match Cluster_ctl.Speaker.add_session speaker ~member ~neighbor ~member_addr:nh with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate session must raise"

(* Keepalive/hold supervision on a speaker session: a neighbour that goes
   silent after its OPEN is torn down by hold expiry exactly like a
   router peer (NOTIFICATION out, controller told, Adj-RIB-Out cleared,
   the expiry counted); a hold of 0 from either side arms nothing. *)
let liveness = { Bgp.Config.interval = Engine.Time.sec 5; hold_time = Engine.Time.sec 15 }

let liveness_setup ?liveness () =
  let sim = Engine.Sim.create ~seed:5 () in
  let wire = ref [] and sessions = ref [] in
  let speaker =
    Cluster_ctl.Speaker.create ?liveness ~sim
      ~send_relay:(fun ~member:_ ~neighbor:_ msg ->
        wire := msg :: !wire;
        true)
      ()
  in
  Cluster_ctl.Speaker.set_handlers speaker
    ~on_update:(fun ~member:_ ~neighbor:_ _ -> ())
    ~on_session:(fun ~member:_ ~neighbor:_ ~up -> sessions := up :: !sessions);
  Cluster_ctl.Speaker.add_session speaker ~member ~neighbor ~member_addr:nh;
  (sim, speaker, wire, sessions)

let open_with hold_time = Bgp.Message.Open { asn = neighbor; router_id = nh; hold_time }

let hold_expirations sim =
  let snap = Engine.Metrics.snapshot (Engine.Sim.metrics sim) ~at:(Engine.Sim.now sim) in
  Engine.Metrics.value snap ~labels:[ ("node", "speaker") ] "bgp_hold_expirations_total"

let test_speaker_hold_expiry () =
  let sim, speaker, wire, sessions = liveness_setup ~liveness () in
  Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor (open_with 15);
  (match !wire with
  | [ Bgp.Message.Open { hold_time; _ } ] ->
    Alcotest.(check int) "our hold proposal" 15 hold_time
  | _ -> Alcotest.fail "expected one OPEN out");
  Alcotest.(check int) "keepalive and hold timers armed" 2
    (List.length (Engine.Node.owned_timers (Cluster_ctl.Speaker.node speaker)));
  let attrs = Bgp.Attrs.make ~as_path:[ member ] ~next_hop:nh () in
  Cluster_ctl.Speaker.announce speaker ~member ~neighbor (p "9.9.9.0/24") attrs;
  ignore (Engine.Sim.run ~until:(Engine.Time.sec 14) sim);
  Alcotest.(check bool) "alive before the hold runs out" true
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor);
  Alcotest.(check bool) "keepalives sent while silent" true
    (List.mem Bgp.Message.Keepalive !wire);
  ignore (Engine.Sim.run ~until:(Engine.Time.sec 16) sim);
  Alcotest.(check bool) "torn down" false
    (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor);
  Alcotest.(check bool) "NOTIFICATION sent" true
    (List.mem (Bgp.Message.Notification "hold timer expired") !wire);
  Alcotest.(check (list bool)) "controller told up, then down" [ false; true ] !sessions;
  Alcotest.(check bool) "adj-out cleared" true
    (Cluster_ctl.Speaker.advertised speaker ~member ~neighbor (p "9.9.9.0/24") = None);
  Alcotest.(check (option (float 0.0))) "expiry counted" (Some 1.0) (hold_expirations sim)

let test_speaker_zero_hold_arms_nothing () =
  List.iter
    (fun (label, liveness, peer_hold) ->
      let sim, speaker, wire, _ = liveness_setup ?liveness () in
      Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor (open_with peer_hold);
      Alcotest.(check int) (label ^ ": no timers") 0
        (List.length (Engine.Node.owned_timers (Cluster_ctl.Speaker.node speaker)));
      ignore (Engine.Sim.run ~until:(Engine.Time.sec 60) sim);
      Alcotest.(check bool) (label ^ ": still established") true
        (Cluster_ctl.Speaker.session_established speaker ~member ~neighbor);
      Alcotest.(check int) (label ^ ": only the OPEN went out") 1 (List.length !wire))
    [ ("peer proposes 0", Some liveness, 0); ("liveness off", None, 15) ]

(* Sessions keep configuration order, and adding one costs the same
   however many are already configured (an append to the order list
   would copy it, ~3 words per session already there). *)
let test_add_session_registration () =
  let speaker, _, _, _ = setup () in
  let add i =
    Cluster_ctl.Speaker.add_session speaker ~member:(asn (70_000 + (i mod 7)))
      ~neighbor:(asn (100_000 + i)) ~member_addr:nh
  in
  List.iter add [ 3; 1; 2 ];
  Alcotest.(check (list (pair int int))) "configuration order"
    [ (65010, 65001); (70003, 100003); (70001, 100001); (70002, 100002) ]
    (List.map
       (fun (m, n) -> (Net.Asn.to_int m, Net.Asn.to_int n))
       (Cluster_ctl.Speaker.sessions speaker));
  Alcotest.(check (list int)) "sessions_of in configuration order" [ 100_001 ]
    (List.map Net.Asn.to_int (Cluster_ctl.Speaker.sessions_of speaker (asn 70_001)));
  let next = ref 10 in
  let words_per_registration n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      add !next;
      incr next
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let first = words_per_registration 1000 in
  ignore (words_per_registration 20_000);
  let late = words_per_registration 1000 in
  Alcotest.(check bool)
    (Fmt.str "%.2f words per session (first %.2f) within 8 of the first" late first)
    true
    (late <= first +. 8.0)

(* RFC 4271 negotiation: the session runs on the smaller of the two hold
   proposals, whichever side made it. *)
let test_speaker_negotiated_hold () =
  List.iter
    (fun (peer_hold, expected) ->
      let sim, speaker, _, _ = liveness_setup ~liveness () in
      Cluster_ctl.Speaker.handle_relay speaker ~member ~neighbor (open_with peer_hold);
      let up_at secs =
        ignore (Engine.Sim.run ~until:(Engine.Time.ms (secs * 1000)) sim);
        Cluster_ctl.Speaker.session_established speaker ~member ~neighbor
      in
      let label = Fmt.str "peer proposes %d" peer_hold in
      Alcotest.(check bool) (label ^ ": up just before the hold") true (up_at (expected - 1));
      Alcotest.(check bool) (label ^ ": down just after it") false (up_at (expected + 1)))
    [ (9, 9); (30, 15) ]

(* Batch scope: every change a session gets inside one scope leaves as
   one packed UPDATE per session, sessions in configuration order (the
   second session configured has the lower ASNs), prefixes ascending.
   Outside a scope each change goes out at once.  With MRAI pacing only
   the first change of an idle session goes out at once; the rest wait
   for timer expiry. *)
let test_batch_packs_one_update_per_session () =
  let a_member = asn 65010 and a_neighbor = asn 65003 in
  let b_member = asn 65009 and b_neighbor = asn 65002 in
  let attrs = Bgp.Attrs.make ~as_path:[ a_member ] ~next_hop:nh () in
  let show (m, n, (u : Bgp.Message.update)) =
    Fmt.str "%d/%d +[%s] -[%s]" (Net.Asn.to_int m) (Net.Asn.to_int n)
      (String.concat " " (List.map (fun (q, _) -> Net.Ipv4.prefix_to_string q) u.announced))
      (String.concat " " (List.map Net.Ipv4.prefix_to_string u.withdrawn))
  in
  let run ?mrai_config () =
    let sim = Engine.Sim.create ~seed:5 () in
    let wire = ref [] in
    let speaker =
      Cluster_ctl.Speaker.create ~sim
        ~send_relay:(fun ~member ~neighbor msg ->
          (match msg with
          | Bgp.Message.Update u -> wire := (member, neighbor, u) :: !wire
          | _ -> ());
          true)
        ()
    in
    let module S = Cluster_ctl.Speaker in
    List.iter
      (fun (member, neighbor) ->
        S.add_session ?mrai_config speaker ~member ~neighbor ~member_addr:nh;
        S.handle_relay speaker ~member ~neighbor
          (Bgp.Message.Open { asn = neighbor; router_id = nh; hold_time = 0 }))
      [ (a_member, a_neighbor); (b_member, b_neighbor) ];
    let sent () =
      let l = List.rev_map show !wire in
      wire := [];
      l
    in
    S.announce speaker ~member:a_member ~neighbor:a_neighbor (p "10.0.0.0/24") attrs;
    S.announce speaker ~member:a_member ~neighbor:a_neighbor (p "10.0.9.0/24") attrs;
    let outside = sent () in
    S.with_batch speaker (fun () ->
        S.announce speaker ~member:a_member ~neighbor:a_neighbor (p "10.0.2.0/24") attrs;
        S.announce speaker ~member:a_member ~neighbor:a_neighbor (p "10.0.1.0/24") attrs;
        S.withdraw speaker ~member:a_member ~neighbor:a_neighbor (p "10.0.0.0/24");
        S.announce speaker ~member:b_member ~neighbor:b_neighbor (p "10.0.3.0/24") attrs;
        Alcotest.(check (list string)) "nothing leaves inside the scope" [] (sent ()));
    let at_close = sent () in
    ignore (Engine.Sim.run sim);
    (outside, at_close, sent ())
  in
  let unpaced = run () in
  Alcotest.(check (list string)) "unpaced: each change at once outside a scope"
    [ "65010/65003 +[10.0.0.0/24] -[]"; "65010/65003 +[10.0.9.0/24] -[]" ]
    (let o, _, _ = unpaced in o);
  Alcotest.(check (list string)) "unpaced: one UPDATE per session at scope close"
    [ "65010/65003 +[10.0.1.0/24 10.0.2.0/24] -[10.0.0.0/24]"; "65009/65002 +[10.0.3.0/24] -[]" ]
    (let _, c, _ = unpaced in c);
  Alcotest.(check (list string)) "unpaced: no timer traffic" [] (let _, _, l = unpaced in l);
  let mrai_config =
    Bgp.Config.no_jitter { Bgp.Config.default with Bgp.Config.mrai = Engine.Time.sec 10 }
  in
  let outside, at_close, later = run ~mrai_config () in
  Alcotest.(check (list string)) "paced: only the first change goes out at once"
    [ "65010/65003 +[10.0.0.0/24] -[]" ] outside;
  Alcotest.(check (list string)) "paced: an idle session sends at scope close"
    [ "65009/65002 +[10.0.3.0/24] -[]" ] at_close;
  Alcotest.(check (list string)) "paced: the rest waits for timer expiry"
    [ "65010/65003 +[10.0.1.0/24 10.0.2.0/24 10.0.9.0/24] -[10.0.0.0/24]" ] later

(* Speaker pacing golden: a 10-clique whose last five ASes are SDN
   members, driven through two announcements, a link failure, a
   withdrawal and the link's recovery, under the three speaker modes
   (unpaced, Quagga-paced, and paced with withdrawals exempt).  The
   executed-event count and the collector and Prometheus digests are
   pinned per seed, so any change to how the speaker's UPDATEs are
   packed, paced or counted shows up here. *)
let test_speaker_pacing_golden () =
  let module N = Framework.Network in
  let a = Topology.Artificial.asn in
  let spec =
    Topology.Spec.with_sdn (Topology.Artificial.clique 10) [ a 5; a 6; a 7; a 8; a 9 ]
  in
  let exempt =
    Bgp.Config.no_jitter
      { Bgp.Config.default with Bgp.Config.mrai = Engine.Time.sec 5; mrai_on_withdrawals = false }
  in
  let run speaker_mrai seed =
    let net = N.create ~config:{ Framework.Config.default with speaker_mrai } ~seed spec in
    N.start net;
    let plan = N.plan net in
    let prefix x = plan.Framework.Addressing.origin_prefix x in
    N.originate net (a 0) (prefix (a 0));
    N.originate net (a 1) (prefix (a 1));
    ignore (N.settle net);
    N.fail_link net (a 0) (a 7);
    ignore (N.settle net);
    N.withdraw net (a 1) (prefix (a 1));
    ignore (N.settle net);
    N.recover_link net (a 0) (a 7);
    ignore (N.settle net);
    let sim = N.sim net in
    let snap = Engine.Metrics.snapshot (Engine.Sim.metrics sim) ~at:(Engine.Sim.now sim) in
    let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 12 in
    Fmt.str "%d %s %s" (Engine.Sim.executed sim)
      (hex (Bgp.Collector.dump (N.collector net)))
      (hex (Engine.Metrics.to_prometheus snap))
  in
  let modes = [ ("unpaced", None); ("paced", Some Bgp.Config.default); ("exempt", Some exempt) ] in
  let got =
    List.concat_map
      (fun (label, mode) ->
        List.map (fun seed -> Fmt.str "%s/%d %s" label seed (run mode seed)) [ 1; 2; 3 ])
      modes
  in
  Alcotest.(check (list string)) "events, collector and prometheus digests"
    [
      "unpaced/1 1085 41479df49b51 68a9cdc7076a";
      "unpaced/2 1141 270c78b0a70b ff84eccc044e";
      "unpaced/3 1142 49a3ddc54dbe a60158105171";
      "paced/1 1201 f34e81f8cfa7 ca41335ed98e";
      "paced/2 1257 0ae0710e107a 7e1b0afe0344";
      "paced/3 1209 1d7524c2542d d54a48398c58";
      "exempt/1 1167 1db629b17791 0e9678719efc";
      "exempt/2 1235 0fb3dacbfea2 bf9ebef169e8";
      "exempt/3 1227 5eb4884ae2bc 5ccbdcb59a1f";
    ]
    got

let suite =
  [
    Alcotest.test_case "open handshake + AS identity" `Quick test_open_handshake_preserves_identity;
    Alcotest.test_case "update relayed to controller" `Quick test_update_relayed_to_controller;
    Alcotest.test_case "update before open dropped" `Quick test_update_before_open_dropped;
    Alcotest.test_case "announce dedup" `Quick test_announce_dedup;
    Alcotest.test_case "withdraw only if advertised" `Quick test_withdraw_only_if_advertised;
    Alcotest.test_case "session down clears state" `Quick test_session_down_clears_state;
    Alcotest.test_case "duplicate session rejected" `Quick test_duplicate_session_rejected;
    Alcotest.test_case "hold expiry tears down" `Quick test_speaker_hold_expiry;
    Alcotest.test_case "zero hold arms no timer" `Quick test_speaker_zero_hold_arms_nothing;
    Alcotest.test_case "negotiated hold is the smaller" `Quick test_speaker_negotiated_hold;
    Alcotest.test_case "add_session registration" `Quick test_add_session_registration;
    Alcotest.test_case "batch packs one UPDATE per session" `Quick
      test_batch_packs_one_update_per_session;
    Alcotest.test_case "speaker pacing golden" `Quick test_speaker_pacing_golden;
  ]
