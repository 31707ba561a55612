(* Sharded single-run execution: the differential guarantee is that one
   simulation partitioned across N domains is bit-identical, on every
   deterministic field (phase timings, measurements, merged metrics,
   collector stream, RIB sums), to the same run at shards = 1. *)

let cfg = Framework.Config.fast_test

module Sharding = Framework.Sharding
module Partition = Topology.Partition

(* --- Topology.Partition ------------------------------------------------- *)

let caida seed = Topology.Caida.generate ~tier1:2 ~tier2:5 ~stubs:20 (Engine.Rng.create seed)

let test_partition_deterministic () =
  let spec = caida 7 in
  let a = Partition.compute ~seed:3 ~shards:4 spec in
  let b = Partition.compute ~seed:3 ~shards:4 spec in
  Alcotest.(check bool)
    "same assignment" true
    (Partition.assignment a = Partition.assignment b);
  Alcotest.(check int) "covers every AS" (Topology.Spec.node_count spec)
    (Array.fold_left ( + ) 0 (Partition.sizes a));
  List.iter
    (fun asn ->
      let s = Partition.shard_of a asn in
      Alcotest.(check bool) "shard in range" true (s >= 0 && s < 4))
    (Topology.Spec.asns spec)

let test_partition_sdn_pinned () =
  let spec = Topology.Artificial.clique 8 in
  let members = [ Topology.Artificial.asn 0; Topology.Artificial.asn 3 ] in
  let spec = Topology.Spec.with_sdn spec members in
  let p = Partition.compute ~shards:3 spec in
  List.iter
    (fun m -> Alcotest.(check int) "sdn member on shard 0" 0 (Partition.shard_of p m))
    members

let test_partition_guards () =
  let spec = Topology.Artificial.clique 4 in
  (match Partition.compute ~shards:0 spec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards=0 must raise");
  let p = Partition.compute ~shards:1 spec in
  List.iter
    (fun a -> Alcotest.(check int) "shards=1 all on 0" 0 (Partition.shard_of p a))
    (Topology.Spec.asns spec);
  (match Partition.shard_of p (Net.Asn.of_int 64000) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown ASN must raise");
  (* more shards than ASes: empty regions are legal *)
  let p = Partition.compute ~shards:9 spec in
  Alcotest.(check int) "still covers all" 4 (Array.fold_left ( + ) 0 (Partition.sizes p))

(* --- Engine.Sim canonical ordering -------------------------------------- *)

let test_canonical_order () =
  let sim = Engine.Sim.create ~order:Engine.Sim.Canonical () in
  let log = ref [] in
  let ev name = ignore (() : unit); log := name :: !log in
  let at = Engine.Time.ms 5 in
  let key kclass knode kseq = { Engine.Sim.kclass; knode; kseq } in
  (* scrambled insertion order; canonical order must sort it out *)
  ignore (Engine.Sim.schedule_at ~key:(key 1 2 0) sim at (fun () -> ev "node2"));
  ignore (Engine.Sim.schedule_at ~key:(key 1 1 1) sim at (fun () -> ev "node1b"));
  ignore (Engine.Sim.schedule_at ~key:(key (-1) 0 0) sim at (fun () -> ev "driver"));
  ignore (Engine.Sim.schedule_at ~key:(key 1 1 0) sim at (fun () -> ev "node1a"));
  (match Engine.Sim.run sim with Engine.Sim.Exhausted -> () | _ -> Alcotest.fail "drain");
  Alcotest.(check (list string))
    "canonical (kclass, knode, kseq) order"
    [ "driver"; "node1a"; "node1b"; "node2" ]
    (List.rev !log)

let test_seq_order_unchanged () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let at = Engine.Time.ms 5 in
  (* keys are ignored under Seq: insertion (seq) order wins *)
  ignore
    (Engine.Sim.schedule_at ~key:{ Engine.Sim.kclass = 9; knode = 9; kseq = 9 } sim at
       (fun () -> log := "first" :: !log));
  ignore (Engine.Sim.schedule_at sim at (fun () -> log := "second" :: !log));
  (match Engine.Sim.run sim with Engine.Sim.Exhausted -> () | _ -> Alcotest.fail "drain");
  Alcotest.(check (list string)) "seq order" [ "first"; "second" ] (List.rev !log)

(* --- Engine.Metrics.merge ------------------------------------------------ *)

let test_metrics_merge () =
  let reg i =
    let m = Engine.Metrics.create () in
    Engine.Metrics.Counter.add (Engine.Metrics.counter m "updates_total") (10 * (i + 1));
    Engine.Metrics.Gauge.set (Engine.Metrics.gauge m "last_change_seconds") (float_of_int i);
    Engine.Metrics.Gauge.set (Engine.Metrics.gauge m "rib_routes") (float_of_int (i + 1));
    Engine.Metrics.snapshot m ~at:(Engine.Time.sec (i + 1))
  in
  let merged =
    Engine.Metrics.merge
      ~resolve:(fun ~name ~labels:_ ->
        if String.equal name "last_change_seconds" then `Max else `Sum)
      [ reg 0; reg 1; reg 2 ]
  in
  Alcotest.(check (option (float 1e-9)))
    "counters add" (Some 60.0)
    (Engine.Metrics.value merged "updates_total");
  Alcotest.(check (option (float 1e-9)))
    "max gauge" (Some 2.0)
    (Engine.Metrics.value merged "last_change_seconds");
  Alcotest.(check (option (float 1e-9)))
    "sum gauge" (Some 6.0)
    (Engine.Metrics.value merged "rib_routes");
  Alcotest.(check bool) "latest at" true (merged.Engine.Metrics.at = Engine.Time.sec 3)

(* --- Engine.Pool.run_each + HYBRIDSIM_JOBS_CAP --------------------------- *)

let test_run_each () =
  let r = Engine.Pool.run_each ~n:4 (fun i -> i * i) in
  Alcotest.(check (list int)) "shard order" [ 0; 1; 4; 9 ] (Array.to_list r);
  let r1 = Engine.Pool.run_each ~n:1 (fun i -> i + 41) in
  Alcotest.(check (list int)) "n=1 on caller" [ 41 ] (Array.to_list r1);
  (match Engine.Pool.run_each ~n:0 (fun _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n=0 must raise");
  match
    Engine.Pool.run_each ~n:3 (fun i ->
        if i >= 1 then failwith (Fmt.str "boom %d" i) else i)
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> Alcotest.(check string) "lowest index wins" "boom 1" msg

let test_jobs_cap_env () =
  let with_env v f =
    let old = Sys.getenv_opt "HYBRIDSIM_JOBS_CAP" in
    Unix.putenv "HYBRIDSIM_JOBS_CAP" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "HYBRIDSIM_JOBS_CAP" (Option.value old ~default:"")) f
  in
  with_env "2" (fun () ->
      Alcotest.(check bool) "cap=2 applies" true (Engine.Pool.recommended_jobs () <= 2));
  with_env "1" (fun () ->
      Alcotest.(check int) "cap=1 applies" 1 (Engine.Pool.recommended_jobs ()));
  with_env "bogus" (fun () ->
      let d = Engine.Pool.recommended_jobs () in
      Alcotest.(check bool) "bogus falls back to default" true (d >= 1 && d <= 8));
  with_env "0" (fun () ->
      let d = Engine.Pool.recommended_jobs () in
      Alcotest.(check bool) "non-positive falls back" true (d >= 1 && d <= 8));
  (* explicit ?cap still beats the env var *)
  with_env "7" (fun () ->
      Alcotest.(check int) "explicit cap wins" 1 (Engine.Pool.recommended_jobs ~cap:1 ()))

(* --- Sharding differentials ---------------------------------------------- *)

let check_equal name a b =
  Alcotest.(check bool) name true (Sharding.equal_result a b)

let clique_spec ~n ~sdn =
  let spec = Topology.Artificial.clique n in
  if sdn > 0 then Topology.Spec.with_sdn spec (List.init sdn Topology.Artificial.asn)
  else spec

let announce_withdraw_phases spec origin =
  let plan = Framework.Addressing.plan spec in
  let prefix = plan.Framework.Addressing.origin_prefix origin in
  [
    { Sharding.commands = [ Sharding.Originate (origin, prefix) ]; measured = Some prefix };
    { Sharding.commands = [ Sharding.Withdraw (origin, prefix) ]; measured = Some prefix };
  ]

let run_clique ~shards ~sdn () =
  let spec = clique_spec ~n:8 ~sdn in
  let origin = Topology.Artificial.asn 7 in
  Sharding.run ~shards ~config:cfg ~seed:11 ~phases:(announce_withdraw_phases spec origin)
    spec

let test_clique_differential () =
  let r1 = run_clique ~shards:1 ~sdn:0 () in
  Alcotest.(check bool) "settled" true r1.Sharding.settled;
  Alcotest.(check int) "both phases ran" 2 (List.length r1.Sharding.phases);
  (match (List.nth r1.Sharding.phases 1).Sharding.measurement with
  | Some m ->
    Alcotest.(check bool) "withdrawal converged" true (m.Framework.Convergence.changes > 0)
  | None -> Alcotest.fail "missing measurement");
  check_equal "clique shards 2 == 1" r1 (run_clique ~shards:2 ~sdn:0 ());
  check_equal "clique shards 4 == 1" r1 (run_clique ~shards:4 ~sdn:0 ())

let test_clique_sdn_differential () =
  let r1 = run_clique ~shards:1 ~sdn:3 () in
  Alcotest.(check bool) "settled" true r1.Sharding.settled;
  check_equal "sdn clique shards 2 == 1" r1 (run_clique ~shards:2 ~sdn:3 ());
  check_equal "sdn clique shards 3 == 1" r1 (run_clique ~shards:3 ~sdn:3 ())

(* A chaos phase plan that crosses the partition: fail a link whose
   endpoints live on different shards of the 2-way partition, re-measure,
   then recover it. *)
let test_caida_chaos_differential () =
  let spec = caida 5 in
  let origin = List.hd (Topology.Caida.stub_asns ~tier1:2 ~tier2:5 ~stubs:20) in
  let p2 = Partition.compute ~seed:11 ~shards:2 spec in
  let cut =
    List.find
      (fun (l : Topology.Spec.link_spec) ->
        Partition.shard_of p2 l.Topology.Spec.a <> Partition.shard_of p2 l.Topology.Spec.b)
      (Topology.Spec.links spec)
  in
  let plan = Framework.Addressing.plan spec in
  let prefix = plan.Framework.Addressing.origin_prefix origin in
  let phases =
    [
      { Sharding.commands = [ Sharding.Originate (origin, prefix) ]; measured = Some prefix };
      {
        Sharding.commands = [ Sharding.Fail_link (cut.Topology.Spec.a, cut.Topology.Spec.b) ];
        measured = Some prefix;
      };
      {
        Sharding.commands =
          [ Sharding.Recover_link (cut.Topology.Spec.a, cut.Topology.Spec.b) ];
        measured = Some prefix;
      };
      { Sharding.commands = [ Sharding.Withdraw (origin, prefix) ]; measured = Some prefix };
    ]
  in
  let run shards = Sharding.run ~shards ~partition_seed:11 ~config:cfg ~seed:5 ~phases spec in
  let r1 = run 1 in
  Alcotest.(check bool) "settled" true r1.Sharding.settled;
  Alcotest.(check int) "all phases ran" 4 (List.length r1.Sharding.phases);
  let r2 = run 2 in
  Alcotest.(check bool) "cut links crossed" true (r2.Sharding.cut_links > 0);
  check_equal "caida chaos shards 2 == 1" r1 r2

let test_scale_shard_differential () =
  let run shards =
    Framework.Experiments.scale_run ~tier1:2 ~tier2:4 ~stubs:10 ~prefixes:6 ~sdn:2 ~shards
      ~seed:3 ~config:cfg ()
  in
  let s1, r1 = run 1 in
  Alcotest.(check bool) "load settled" true s1.Framework.Experiments.load_settled;
  Alcotest.(check bool)
    "withdrawal measured" true
    (Float.is_finite s1.Framework.Experiments.withdrawal.Framework.Experiments.seconds);
  let s2, r2 = run 2 in
  check_equal "scale shards 2 == 1" r1 r2;
  Alcotest.(check int)
    "rib routes agree" s1.Framework.Experiments.rib_routes s2.Framework.Experiments.rib_routes;
  Alcotest.(check (float 1e-9))
    "convergence agrees" s1.Framework.Experiments.withdrawal.Framework.Experiments.seconds
    s2.Framework.Experiments.withdrawal.Framework.Experiments.seconds

(* Figures of the former sequential scale driver (direct [Network] calls,
   per-phase budgets), recorded before it was deleted: the one driver at
   shards = 1 must reproduce them. *)
let test_scale_run_golden () =
  List.iter
    (fun (sdn, load_updates, rib, adj, seconds, changes, collector) ->
      let r, _ =
        Framework.Experiments.scale_run ~tier1:2 ~tier2:4 ~stubs:10 ~prefixes:6 ~sdn ~seed:3
          ~config:cfg ()
      in
      let w = r.Framework.Experiments.withdrawal in
      let name what = Fmt.str "sdn %d: %s" sdn what in
      Alcotest.(check bool) (name "load settled") true r.Framework.Experiments.load_settled;
      Alcotest.(check int) (name "load updates") load_updates
        r.Framework.Experiments.load_updates;
      Alcotest.(check int) (name "Loc-RIB routes") rib r.Framework.Experiments.rib_routes;
      Alcotest.(check int) (name "Adj-RIB-In routes") adj
        r.Framework.Experiments.adj_in_routes;
      Alcotest.(check (float 1e-9)) (name "Tdown") seconds w.Framework.Experiments.seconds;
      Alcotest.(check int) (name "changes") changes w.Framework.Experiments.changes;
      Alcotest.(check int) (name "collector updates") collector
        w.Framework.Experiments.collector_updates)
    [ (0, 96, 96, 142, 3.779655, 40, 36); (2, 98, 84, 119, 3.976148, 32, 30) ]

let test_sharding_guards () =
  let spec = clique_spec ~n:4 ~sdn:0 in
  let phases = announce_withdraw_phases spec (Topology.Artificial.asn 3) in
  match Sharding.run ~shards:0 ~config:cfg ~seed:1 ~phases spec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards=0 must raise"

let test_budget_stops_deterministically () =
  let spec = clique_spec ~n:8 ~sdn:0 in
  let phases = announce_withdraw_phases spec (Topology.Artificial.asn 7) in
  let run shards =
    Sharding.run ~shards ~budget:60 ~config:cfg ~seed:11 ~phases spec
  in
  let r1 = run 1 in
  Alcotest.(check bool) "budget stops the run" false r1.Sharding.settled;
  check_equal "budget-stopped shards 2 == 1" r1 (run 2)

let suite =
  [
    Alcotest.test_case "partition: deterministic + covering" `Quick test_partition_deterministic;
    Alcotest.test_case "partition: sdn pinned to shard 0" `Quick test_partition_sdn_pinned;
    Alcotest.test_case "partition: guards" `Quick test_partition_guards;
    Alcotest.test_case "sim: canonical key order" `Quick test_canonical_order;
    Alcotest.test_case "sim: seq order unchanged" `Quick test_seq_order_unchanged;
    Alcotest.test_case "metrics: merge" `Quick test_metrics_merge;
    Alcotest.test_case "pool: run_each" `Quick test_run_each;
    Alcotest.test_case "pool: HYBRIDSIM_JOBS_CAP" `Quick test_jobs_cap_env;
    Alcotest.test_case "clique shards {1,2,4} identical" `Quick test_clique_differential;
    Alcotest.test_case "sdn clique shards {1,2,3} identical" `Quick test_clique_sdn_differential;
    Alcotest.test_case "caida chaos shards 2 == 1" `Slow test_caida_chaos_differential;
    Alcotest.test_case "scale run shards 2 == 1" `Slow test_scale_shard_differential;
    Alcotest.test_case "scale run golden at shards 1" `Quick test_scale_run_golden;
    Alcotest.test_case "sharding: guards" `Quick test_sharding_guards;
    Alcotest.test_case "budget stop is deterministic" `Quick test_budget_stops_deterministically;
  ]
