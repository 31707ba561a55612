(* Framework.Experiments: scaled-down versions of the paper experiments —
   the same code paths as the bench harness, with small n and few runs. *)

let cfg = Framework.Config.fast_test

let test_fig2_shape () =
  (* 8-AS clique, 0/2/4/6 SDN, 2 runs: median Tdown must decrease with
     the SDN fraction, and the linear fit must slope downward. *)
  let s = Framework.Experiments.fig2_withdrawal ~n:8 ~runs:2 ~seed:3 ~config:cfg () in
  let medians =
    List.map (fun (p : Framework.Experiments.point) -> p.Framework.Experiments.box.Engine.Stats.median)
      s.Framework.Experiments.points
  in
  (match (medians, List.rev medians) with
  | first :: _, last :: _ ->
    Alcotest.(check bool)
      (Fmt.str "monotone trend overall: %.1f .. %.1f" first last)
      true (last < first /. 2.0)
  | _ -> Alcotest.fail "empty sweep");
  let _, slope, r2 = Framework.Experiments.median_trend s in
  Alcotest.(check bool) (Fmt.str "negative slope %.2f" slope) true (slope < 0.0);
  Alcotest.(check bool) (Fmt.str "linear fit r2=%.2f" r2) true (r2 > 0.7)

let test_announcement_fast_and_flat () =
  let s = Framework.Experiments.announcement_sweep ~n:8 ~runs:2 ~seed:5 ~config:cfg () in
  List.iter
    (fun (p : Framework.Experiments.point) ->
      Alcotest.(check bool)
        (Fmt.str "Tup small at x=%.0f" p.Framework.Experiments.x)
        true
        (p.Framework.Experiments.box.Engine.Stats.median < 2.0))
    s.Framework.Experiments.points

let test_failover_completes () =
  let r = Framework.Experiments.failover_run ~n:5 ~sdn:2 ~seed:7 ~config:cfg () in
  Alcotest.(check bool) "failover measured" true (not (Float.is_nan r.Framework.Experiments.seconds));
  Alcotest.(check bool) "positive" true (r.Framework.Experiments.seconds > 0.0)

let test_failover_sweep_runs () =
  let s = Framework.Experiments.failover_sweep ~n:6 ~runs:1 ~seed:9 ~config:cfg () in
  Alcotest.(check bool) "has points" true (List.length s.Framework.Experiments.points >= 2);
  List.iter
    (fun (p : Framework.Experiments.point) ->
      Alcotest.(check bool) "finite medians" true
        (Float.is_finite p.Framework.Experiments.box.Engine.Stats.median))
    s.Framework.Experiments.points

let test_ablation_recompute_delay () =
  let s =
    Framework.Experiments.ablation_recompute_delay ~n:6 ~runs:1 ~seed:11 ~config:cfg
      ~delays_ms:[ 0; 1000 ] ()
  in
  Alcotest.(check int) "two points" 2 (List.length s.Framework.Experiments.points)

let test_ablation_wrate_direction () =
  (* Quagga-style withdrawal pacing (x=1) must converge slower than
     RFC-style exemption (x=0). *)
  let s = Framework.Experiments.ablation_wrate ~n:6 ~runs:2 ~seed:13 ~config:cfg ~sdn:0 () in
  match s.Framework.Experiments.points with
  | [ rfc; quagga ] ->
    Alcotest.(check bool)
      (Fmt.str "rfc %.2f < quagga %.2f" rfc.Framework.Experiments.box.Engine.Stats.median
         quagga.Framework.Experiments.box.Engine.Stats.median)
      true
      (rfc.Framework.Experiments.box.Engine.Stats.median
      < quagga.Framework.Experiments.box.Engine.Stats.median)
  | _ -> Alcotest.fail "expected two points"

let test_placement_strategies () =
  let rng = Engine.Rng.create 91 in
  let spec = Topology.Caida.generate ~tier1:2 ~tier2:4 ~stubs:8 rng in
  let origin = List.hd (Topology.Caida.stub_asns ~tier1:2 ~tier2:4 ~stubs:8) in
  (* top-degree must pick transit ASes, stubs-first must pick stubs *)
  let degree a = List.length (Topology.Spec.neighbors spec a) in
  let top =
    Framework.Experiments.choose_members ~spec ~k:2
      ~placement:Framework.Experiments.Top_degree ~origin ~seed:1
  in
  let bottom =
    Framework.Experiments.choose_members ~spec ~k:2
      ~placement:Framework.Experiments.Stubs_first ~origin ~seed:1
  in
  Alcotest.(check int) "k respected" 2 (List.length top);
  Alcotest.(check bool) "top degree >= stub degree" true
    (List.for_all (fun t -> List.for_all (fun b -> degree t >= degree b) bottom) top);
  Alcotest.(check bool) "origin never selected" true
    (not (List.exists (Net.Asn.equal origin) (top @ bottom)));
  (* a placement run completes and measures *)
  let r =
    Framework.Experiments.placement_run ~spec ~k:2
      ~placement:Framework.Experiments.Top_degree ~origin ~seed:2 ~config:cfg ()
  in
  Alcotest.(check bool) "measured" true (Float.is_finite r.Framework.Experiments.seconds)

(* The members each placement picks on a generated CAIDA graph, pinned:
   degree ties keep [Spec.asns] order (stable sort), so a faster degree
   count must not reorder them. *)
let test_placement_members_pinned () =
  let tier1, tier2, stubs = (3, 10, 40) in
  let spec = Topology.Caida.generate ~tier1 ~tier2 ~stubs (Engine.Rng.create 7) in
  let origin = List.hd (Topology.Caida.stub_asns ~tier1 ~tier2 ~stubs) in
  Alcotest.(check int) "origin" 65014 (Net.Asn.to_int origin);
  List.iter
    (fun (name, placement, want) ->
      let got =
        Framework.Experiments.choose_members ~spec ~k:6 ~placement ~origin ~seed:5
        |> List.map Net.Asn.to_int
      in
      Alcotest.(check (list int)) name want got)
    [
      ( "top-degree",
        Framework.Experiments.Top_degree,
        [ 65009; 65012; 65001; 65006; 65007; 65008 ] );
      ( "stubs-first",
        Framework.Experiments.Stubs_first,
        [ 65015; 65017; 65018; 65020; 65021; 65024 ] );
      ( "random",
        Framework.Experiments.Random_choice,
        [ 65039; 65012; 65011; 65049; 65018; 65038 ] );
    ]

let test_churn_run () =
  let quiet =
    Framework.Experiments.clique_run ~n:5 ~sdn:0 ~event:Framework.Experiments.Withdrawal
      ~seed:49 ~config:cfg ()
  in
  let churny =
    Framework.Experiments.churn_run ~n:5 ~sdn:0 ~flap_period_s:2.0 ~seed:49 ~config:cfg ()
  in
  Alcotest.(check bool) "both measured" true
    (Float.is_finite quiet.Framework.Experiments.seconds
    && Float.is_finite churny.Framework.Experiments.seconds);
  Alcotest.(check bool) "churn never speeds convergence up materially" true
    (churny.Framework.Experiments.seconds >= quiet.Framework.Experiments.seconds *. 0.8)

let test_table_size_control () =
  let bare =
    Framework.Experiments.table_size_run ~n:5 ~sdn:0 ~background:0 ~seed:45 ~config:cfg ()
  in
  let loaded =
    Framework.Experiments.table_size_run ~n:5 ~sdn:0 ~background:3 ~seed:45 ~config:cfg ()
  in
  (* same order of magnitude: background prefixes must not explode Tdown *)
  Alcotest.(check bool)
    (Fmt.str "%.1f vs %.1f comparable" bare.Framework.Experiments.seconds
       loaded.Framework.Experiments.seconds)
    true
    (loaded.Framework.Experiments.seconds < 3.0 *. bare.Framework.Experiments.seconds)

let test_scaling_sweep () =
  let s =
    Framework.Experiments.scaling_sweep ~sizes:[ 5; 7 ] ~fraction:0.4 ~runs:1 ~seed:43
      ~config:cfg ()
  in
  match s.Framework.Experiments.points with
  | [ small; large ] ->
    Alcotest.(check bool) "bigger clique converges slower" true
      (large.Framework.Experiments.box.Engine.Stats.median
      > small.Framework.Experiments.box.Engine.Stats.median)
  | _ -> Alcotest.fail "two points expected"

let test_subcluster_resilience () =
  let r = Framework.Experiments.subcluster_resilience ~seed:15 ~config:cfg () in
  Alcotest.(check bool) "reachable before" true r.Framework.Experiments.reachable_before;
  Alcotest.(check bool) "survives split via legacy" true
    r.Framework.Experiments.reachable_after_split;
  Alcotest.(check bool) "path crossed legacy world" true
    r.Framework.Experiments.used_legacy_bridge;
  Alcotest.(check bool) "recovers" true r.Framework.Experiments.reachable_after_recovery

let test_run_results_deterministic () =
  let run () =
    Framework.Experiments.clique_run ~n:5 ~sdn:2 ~event:Framework.Experiments.Withdrawal
      ~seed:17 ~config:cfg ()
  in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-12)) "identical seconds" a.Framework.Experiments.seconds
    b.Framework.Experiments.seconds;
  Alcotest.(check int) "identical changes" a.Framework.Experiments.changes
    b.Framework.Experiments.changes

(* [collector_updates] counts the measured event only: with no
   background prefixes, the table-size run is the plain withdrawal run,
   so the bootstrap announcement must not count in either. *)
let test_collector_updates_measured_only () =
  let withdrawal =
    Framework.Experiments.clique_run ~n:6 ~sdn:2 ~event:Framework.Experiments.Withdrawal
      ~seed:5 ~config:cfg ()
  in
  let table_size =
    Framework.Experiments.table_size_run ~n:6 ~sdn:2 ~background:0 ~seed:5 ~config:cfg ()
  in
  Alcotest.(check int) "same collector updates"
    withdrawal.Framework.Experiments.collector_updates
    table_size.Framework.Experiments.collector_updates;
  Alcotest.(check bool) "same run result" true
    (Framework.Experiments.equal_run_result withdrawal table_size)

(* Trace ids come from their own RNG stream: the tracing mode must never
   change a simulated result, metrics included. *)
let test_tracing_mode_invariant () =
  let run causal =
    Framework.Experiments.clique_run ~n:16 ~sdn:8 ~event:Framework.Experiments.Withdrawal
      ~seed:67 ~config:{ Framework.Config.default with Framework.Config.causal } ()
  in
  let disabled = run Engine.Causal.Disabled in
  List.iter
    (fun (name, mode) ->
      Alcotest.(check bool) (name ^ " == disabled") true
        (Framework.Experiments.equal_run_result disabled (run mode)))
    [ ("ring 4096", Engine.Causal.Ring 4096); ("full", Engine.Causal.Full) ]

(* The sweep threads its event budget to every run: a budget far below
   the load's needs leaves each point unsettled, reported as nan seconds
   rather than a number; the default budget settles. *)
let test_scale_sweep_budget () =
  let sweep ?load_max_events () =
    Framework.Experiments.scale_sweep ~tier1:2 ~tier2:4 ~stubs:10 ~prefixes:6 ~ks:[ 0; 2 ]
      ~runs:1 ~seed:3 ?load_max_events ~config:cfg ()
  in
  let seconds s =
    List.concat_map
      (fun (p : Framework.Experiments.point) ->
        List.map
          (fun (r : Framework.Experiments.run_result) -> r.Framework.Experiments.seconds)
          p.Framework.Experiments.results)
      s.Framework.Experiments.points
  in
  List.iter
    (fun x -> Alcotest.(check bool) (Fmt.str "tiny budget: nan, got %g" x) true (Float.is_nan x))
    (seconds (sweep ~load_max_events:50 ()));
  List.iter
    (fun x -> Alcotest.(check bool) (Fmt.str "default budget: finite, got %g" x) true
        (Float.is_finite x))
    (seconds (sweep ()))

let test_guards () =
  (match Framework.Experiments.clique_run ~n:4 ~sdn:3 ~event:Framework.Experiments.Withdrawal ~seed:1 ~config:cfg () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sdn too large must raise");
  match Framework.Experiments.clique_run ~n:4 ~sdn:0 ~event:Framework.Experiments.Failover ~seed:1 ~config:cfg () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "failover via clique_run must raise"

let suite =
  [
    Alcotest.test_case "fig2 shape (scaled)" `Slow test_fig2_shape;
    Alcotest.test_case "announcement fast and flat" `Slow test_announcement_fast_and_flat;
    Alcotest.test_case "failover completes" `Quick test_failover_completes;
    Alcotest.test_case "failover sweep" `Slow test_failover_sweep_runs;
    Alcotest.test_case "ablation recompute delay" `Slow test_ablation_recompute_delay;
    Alcotest.test_case "ablation wrate direction" `Quick test_ablation_wrate_direction;
    Alcotest.test_case "placement strategies" `Quick test_placement_strategies;
    Alcotest.test_case "placement members pinned" `Quick test_placement_members_pinned;
    Alcotest.test_case "churn coupling" `Quick test_churn_run;
    Alcotest.test_case "table-size control" `Quick test_table_size_control;
    Alcotest.test_case "scaling sweep" `Slow test_scaling_sweep;
    Alcotest.test_case "sub-cluster resilience" `Quick test_subcluster_resilience;
    Alcotest.test_case "determinism" `Quick test_run_results_deterministic;
    Alcotest.test_case "collector updates: measured event only" `Quick
      test_collector_updates_measured_only;
    Alcotest.test_case "tracing mode never changes a run" `Quick test_tracing_mode_invariant;
    Alcotest.test_case "scale sweep honours its budget" `Quick test_scale_sweep_budget;
    Alcotest.test_case "argument guards" `Quick test_guards;
  ]
