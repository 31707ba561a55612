(* Framework.Convergence: measurement semantics. *)

let asn = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

let make_exp ?(n = 4) ?(sdn = []) () =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique n) sdn in
  Framework.Experiment.create ~config:cfg ~seed:5 spec

let test_announcement_measured () =
  let exp = make_exp () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  let m =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.announce exp (asn 0)))
  in
  Alcotest.(check bool) "has convergence" true (m.Framework.Convergence.convergence <> None);
  let secs = Framework.Experiment.convergence_seconds m in
  Alcotest.(check bool) "positive and small" true (secs > 0.0 && secs < 5.0);
  Alcotest.(check bool) "changes counted" true (m.Framework.Convergence.changes >= 4)

let test_noop_event_has_no_convergence () =
  let exp = make_exp () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  (* withdrawing a prefix that was never announced changes nothing *)
  let m =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.withdraw exp (asn 0)))
  in
  Alcotest.(check bool) "no convergence for no-op" true
    (m.Framework.Convergence.convergence = None);
  Alcotest.(check int) "no changes" 0 m.Framework.Convergence.changes

let test_withdrawal_slower_than_announcement () =
  let exp = make_exp () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  let m_ann =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.announce exp (asn 0)))
  in
  let m_wd =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.withdraw exp (asn 0)))
  in
  Alcotest.(check bool) "Tdown > Tup (path exploration)" true
    (Framework.Experiment.convergence_seconds m_wd
    > Framework.Experiment.convergence_seconds m_ann)

let test_collector_view_close_to_control_view () =
  let exp = make_exp () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.announce exp (asn 0))));
  let w = Framework.Experiment.watcher exp in
  let control = Option.get (Framework.Convergence.last_control_change w prefix) in
  let collector = Option.get (Framework.Convergence.last_collector_update w prefix) in
  (* the collector hears about the last change within an MRAI + delays *)
  let gap = Engine.Time.to_sec_f (Engine.Time.diff collector control) in
  Alcotest.(check bool) (Fmt.str "gap %.3fs bounded" gap) true (Float.abs gap < 3.0)

let test_sdn_reduces_withdrawal_time () =
  let t_legacy =
    let exp = make_exp ~n:6 () in
    Framework.Experiment.convergence_seconds (Core.measure_withdrawal exp (asn 0))
  in
  let t_hybrid =
    let exp = make_exp ~n:6 ~sdn:[ asn 2; asn 3; asn 4; asn 5 ] () in
    Framework.Experiment.convergence_seconds (Core.measure_withdrawal exp (asn 0))
  in
  Alcotest.(check bool)
    (Fmt.str "hybrid %.2fs < legacy %.2fs" t_hybrid t_legacy)
    true (t_hybrid < t_legacy)

(* The history keeps exactly what [attach] counts, from the moment it is
   recorded: after a measured withdrawal it holds every change of that
   phase, in time order, and nothing of the announcement before it. *)
let test_history_matches_watcher () =
  let exp = make_exp ~n:5 ~sdn:[ asn 3; asn 4 ] () in
  let prefix = Framework.Experiment.default_prefix exp (asn 0) in
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.announce exp (asn 0))));
  let start = Framework.Experiment.now exp in
  let history = Framework.Convergence.record_history (Framework.Experiment.network exp) in
  let m =
    Framework.Experiment.measure exp ~prefix (fun () ->
        ignore (Framework.Experiment.withdraw exp (asn 0)))
  in
  let changes = Framework.Convergence.route_changes history prefix in
  Alcotest.(check int) "one entry per observed change" m.Framework.Convergence.changes
    (List.length changes);
  let times = List.map (fun c -> c.Framework.Convergence.time) changes in
  Alcotest.(check bool) "in time order, none before recording" true
    (List.for_all (fun t -> Engine.Time.(t >= start)) times
    && List.sort Engine.Time.compare times = times);
  Alcotest.(check bool) "last entry is the convergence instant" true
    (Option.map Engine.Time.to_us m.Framework.Convergence.last_change
    = Option.map Engine.Time.to_us (List.nth_opt (List.rev times) 0));
  let other = Framework.Experiment.default_prefix exp (asn 1) in
  Alcotest.(check int) "other prefixes untouched" 0
    (List.length (Framework.Convergence.route_changes history other))

let test_exploration_rounds_gaps () =
  let at s =
    { Framework.Convergence.time = Engine.Time.of_us (s * 1_000_000);
      prefix = Net.Ipv4.prefix (Net.Ipv4.addr_of_octets 10 0 0 0) 8;
      change = Framework.Convergence.Decision (asn 0, None) }
  in
  let rounds l = Framework.Convergence.exploration_rounds (List.map at l) in
  Alcotest.(check int) "no changes, no rounds" 0 (rounds []);
  Alcotest.(check int) "one burst" 1 (rounds [ 0; 0; 3; 10 ]);
  Alcotest.(check int) "split only above 10 s" 3 (rounds [ 0; 5; 20; 20; 31; 40 ])

(* Exploration rounds of a 16-clique withdrawal (Config.default, seed 67,
   SDN members from the top of the clique) — the values the string-log
   analysis reported for the same runs. *)
let test_exploration_rounds_golden () =
  let n = 16 in
  List.iter
    (fun (sdn, expected) ->
      let spec =
        Topology.Spec.with_sdn (Topology.Artificial.clique n)
          (List.init sdn (fun i -> asn (n - 1 - i)))
      in
      let exp = Framework.Experiment.create ~config:Framework.Config.default ~seed:67 spec in
      let prefix = Framework.Experiment.default_prefix exp (asn 0) in
      ignore
        (Framework.Experiment.measure exp ~prefix (fun () ->
             ignore (Framework.Experiment.announce exp (asn 0))));
      let history = Framework.Convergence.record_history (Framework.Experiment.network exp) in
      ignore
        (Framework.Experiment.measure exp ~prefix (fun () ->
             ignore (Framework.Experiment.withdraw exp (asn 0))));
      Alcotest.(check int)
        (Fmt.str "rounds at sdn=%d" sdn)
        expected
        Framework.Convergence.(exploration_rounds (route_changes history prefix)))
    [ (0, 5); (4, 4); (8, 6); (12, 3); (14, 1) ]

let suite =
  [
    Alcotest.test_case "announcement measured" `Quick test_announcement_measured;
    Alcotest.test_case "no-op has no convergence" `Quick test_noop_event_has_no_convergence;
    Alcotest.test_case "withdrawal slower than announcement" `Quick
      test_withdrawal_slower_than_announcement;
    Alcotest.test_case "collector view consistent" `Quick
      test_collector_view_close_to_control_view;
    Alcotest.test_case "centralization reduces Tdown" `Quick test_sdn_reduces_withdrawal_time;
    Alcotest.test_case "history matches watcher" `Quick test_history_matches_watcher;
    Alcotest.test_case "exploration rounds gaps" `Quick test_exploration_rounds_gaps;
    Alcotest.test_case "exploration rounds golden" `Quick test_exploration_rounds_golden;
  ]
