(* Self-test of the benchmark's counter extraction (Counters): labelled
   families are summed over their label sets, label filters select a
   subset, absent series read as missing rather than 0, and deltas treat
   a series registered between two snapshots as growing from zero.
   Exits non-zero on the first failed expectation. *)

module M = Engine.Metrics

let show = function Some v -> Printf.sprintf "%g" v | None -> "missing"

let expect what got want =
  if got <> want then begin
    Printf.eprintf "selftest: %s: got %s, want %s\n" what (show got) (show want);
    exit 1
  end

let () =
  let reg = M.create () in
  let at = Engine.Time.zero in
  let updates node = M.counter reg ~labels:[ ("node", node) ] "bgp_updates_received_total" in
  let events cat = M.counter reg ~labels:[ ("category", cat) ] "sim_events_executed_total" in
  let category c = [ ("category", c) ] in
  M.Counter.add (updates "a") 3;
  M.Counter.add (updates "b") 4;
  M.Counter.add (events "bgp.process") 5;
  M.Counter.add (events "net.deliver") 7;
  M.Counter.add (M.counter reg "bgp_mrai_deferrals_total") 2;
  M.Gauge.set (M.gauge reg ~labels:[ ("node", "a") ] "bgp_loc_rib_routes") 1.5;
  let before = M.snapshot reg ~at in
  (* the trap: an exact lookup of a labelled family finds nothing *)
  expect "Metrics.value on a labelled family" (M.value before "bgp_updates_received_total") None;
  expect "labelled family summed" (Counters.sum before "bgp_updates_received_total") (Some 7.0);
  expect "unlabelled series" (Counters.sum before "bgp_mrai_deferrals_total") (Some 2.0);
  expect "gauge family" (Counters.sum before "bgp_loc_rib_routes") (Some 1.5);
  expect "label filter"
    (Counters.sum ~labels:(category "net.deliver") before "sim_events_executed_total")
    (Some 7.0);
  expect "label filter without a match"
    (Counters.sum ~labels:(category "bgp.mrai") before "sim_events_executed_total")
    None;
  expect "absent series" (Counters.sum before "controller_dijkstra_runs_total") None;
  M.Counter.add (updates "c") 10;
  M.Counter.add (events "bgp.mrai") 1;
  let after = M.snapshot reg ~at in
  expect "delta over a new label set"
    (Counters.delta ~before ~after "bgp_updates_received_total")
    (Some 10.0);
  expect "delta of a series registered in between"
    (Counters.delta ~labels:(category "bgp.mrai") ~before ~after "sim_events_executed_total")
    (Some 1.0);
  expect "delta of an unchanged series"
    (Counters.delta ~before ~after "bgp_mrai_deferrals_total")
    (Some 0.0);
  expect "delta of an absent series"
    (Counters.delta ~before ~after "controller_flow_mods_total")
    None;
  print_endline "selftest: counter extraction ok"
