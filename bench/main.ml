(* The figure harness: regenerates every table/figure of the paper's
   evaluation (full-size, printed as series + ASCII boxplots) and the
   extensions' tables.  It measures simulated results only; host time,
   allocation and memory are measured by the repository benchmark in
   `perfbench/`.

   Sections:
     FIG2            withdrawal convergence vs SDN fraction, 16-AS clique
     ROUNDS          MRAI exploration waves per withdrawal
     ANNOUNCE        announcement convergence vs SDN fraction (§4)
     FAILOVER        fail-over convergence vs SDN fraction (§4)
     ABLATION-DELAY  controller delayed-recomputation interval (A1)
     ABLATION-MRAI   MRAI sensitivity (A3)
     ABLATION-WRATE  withdrawal pacing: RFC vs Quagga (A4)
     ABLATION-SPEAKER-MRAI, ABLATION-DAMPING   extensions (A6, A5)
     SCALING         withdrawal convergence vs clique size
     PLACEMENT       which ASes to centralize on an Internet-like graph
     CHURN-LOAD      withdrawal convergence under background flapping
     TABLE-SIZE      negative control: background prefixes
     SUBCLUSTER      disjoint sub-cluster resilience (A2)
     CHURN           collector update counts vs SDN fraction
     SCALE           CAIDA-graph load + withdrawal (must settle)
     LOSS            data-plane loss vs centralization (no residual issues)

   `dune exec bench/main.exe` writes every series to bench_results/*.csv.
   `--quick` runs a reduced sweep and writes no CSV.  `--jobs N` runs the
   sweeps on an N-domain `Engine.Pool` (default: recommended cores,
   capped; 0 = auto; 1 = sequential); the output does not depend on N. *)

let quick = ref false

let jobs = ref 0

let () =
  Arg.parse
    [
      ("--quick", Arg.Set quick, " reduced sweep; write no CSV");
      ("--jobs", Arg.Set_int jobs, "N worker domains for the sweeps (0 = auto)");
    ]
    (fun a -> raise (Arg.Bad (Fmt.str "unexpected argument %S" a)))
    "main.exe [--quick] [--jobs N]"

let quick = !quick

let jobs =
  match !jobs with
  | 0 -> Engine.Pool.recommended_jobs ()
  | v when v >= 1 -> v
  | v -> Fmt.failwith "--jobs: expected a non-negative integer, got %d" v

let n = if quick then 8 else 16

let runs = if quick then 3 else 10

let config = Framework.Config.default

(* One pool for every sweep; [None] when running sequentially. *)
let pool = if jobs > 1 then Some (Engine.Pool.create ~jobs) else None

let section name = Fmt.pr "@.===== %s =====@." name

(* Machine-readable copy for external plotting; full-size runs only, so a
   quick run never overwrites the tracked CSVs. *)
let write_csv label contents =
  if not quick then begin
    let dir = "bench_results" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out (Filename.concat dir (label ^ ".csv")) in
    output_string oc contents;
    close_out oc
  end

let print_series s =
  Fmt.pr "%a@." Framework.Experiments.pp_series s;
  Fmt.pr "%s@." (Framework.Visualize.series_to_ascii s);
  write_csv s.Framework.Experiments.label (Framework.Experiments.series_to_csv s)

let print_trend s =
  let intercept, slope, r2 = Framework.Experiments.median_trend s in
  Fmt.pr "linear fit of medians: y = %.2f + %.2f*x   r^2 = %.3f@." intercept slope r2

let fig2 () =
  section (Fmt.str "FIG2: withdrawal convergence, %d-AS clique, %d runs/point" n runs);
  let s = Framework.Experiments.fig2_withdrawal ?pool ~n ~runs ~config () in
  print_series s;
  print_trend s;
  s

let announce () =
  section "ANNOUNCE: announcement convergence (smaller reductions expected)";
  print_series (Framework.Experiments.announcement_sweep ?pool ~n ~runs ~config ())

let failover () =
  section "FAILOVER: stub primary-link failure, backup via 2-AS chain";
  let s = Framework.Experiments.failover_sweep ?pool ~n ~runs ~config () in
  print_series s;
  Fmt.pr "data-plane restoration (the demo's end-to-end interruption):@.";
  Fmt.pr "%8s %14s %14s@." "sdn" "mean-restore-s" "max-restore-s";
  List.iter
    (fun (p : Framework.Experiments.point) ->
      let mean f = Engine.Stats.mean (List.map f p.Framework.Experiments.results) in
      Fmt.pr "%8.0f %14.2f %14.2f@." p.Framework.Experiments.x
        (mean (fun r -> r.Framework.Experiments.restore_mean))
        (mean (fun r -> r.Framework.Experiments.restore_max)))
    s.Framework.Experiments.points

let rounds () =
  section "ROUNDS: MRAI exploration waves per withdrawal (the mechanism behind FIG2)";
  Fmt.pr "%8s %8s %14s@." "sdn" "waves" "Tdown-s";
  List.iter
    (fun sdn ->
      let spec = Topology.Artificial.clique n in
      let members = List.init sdn (fun i -> Topology.Artificial.asn (n - 1 - i)) in
      let spec = Topology.Spec.with_sdn spec members in
      let exp = Framework.Experiment.create ~config ~seed:67 spec in
      let origin = Topology.Artificial.asn 0 in
      let prefix = Framework.Experiment.default_prefix exp origin in
      ignore
        (Framework.Experiment.measure exp ~prefix (fun () ->
             ignore (Framework.Experiment.announce exp origin)));
      let history = Framework.Convergence.record_history (Framework.Experiment.network exp) in
      let m =
        Framework.Experiment.measure exp ~prefix (fun () ->
            ignore (Framework.Experiment.withdraw exp origin))
      in
      let waves =
        Framework.Convergence.(exploration_rounds (route_changes history prefix))
      in
      Fmt.pr "%8d %8d %14.2f@." sdn waves (Framework.Experiment.convergence_seconds m))
    (if quick then [ 0; 4 ] else [ 0; 4; 8; 12; 14 ])

let ablation_delay () =
  section "ABLATION-DELAY: controller recomputation delay at 50% deployment (x = ms)";
  print_series (Framework.Experiments.ablation_recompute_delay ?pool ~n ~runs ~config ())

let ablation_mrai () =
  section "ABLATION-MRAI: MRAI sensitivity (x = MRAI seconds)";
  print_series (Framework.Experiments.ablation_mrai ?pool ~n ~runs ~config ~sdn:0 ());
  print_series (Framework.Experiments.ablation_mrai ?pool ~n ~runs ~config ~sdn:(n / 2) ())

let ablation_wrate () =
  section "ABLATION-WRATE: withdrawal pacing (x=0 RFC-exempt, x=1 Quagga-paced)";
  print_series (Framework.Experiments.ablation_wrate ?pool ~n ~runs ~config ~sdn:0 ())

let scaling () =
  section "SCALING: withdrawal convergence vs clique size (x = n, 50% centralized vs 0%)";
  List.iter
    (fun fraction ->
      print_series
        (Framework.Experiments.scaling_sweep ?pool
           ~sizes:(if quick then [ 6; 8; 10 ] else [ 8; 12; 16; 20; 24 ])
           ~fraction ~runs:(if quick then 2 else 5) ~config ()))
    [ 0.5; 0.0 ]

let ablation_speaker_mrai () =
  section "ABLATION-SPEAKER-MRAI: pace the cluster speaker like a BGP router (50% SDN)";
  Fmt.pr "%14s %12s@." "speaker-mrai" "Tdown-med-s";
  List.iter
    (fun (label, speaker_mrai) ->
      let config = { config with Framework.Config.speaker_mrai } in
      let results =
        List.init
          (if quick then 2 else 5)
          (fun i ->
            Framework.Experiments.clique_run ~n ~sdn:(n / 2)
              ~event:Framework.Experiments.Withdrawal ~seed:(61 + (1000 * i)) ~config ())
      in
      let med =
        Engine.Stats.median (List.map (fun r -> r.Framework.Experiments.seconds) results)
      in
      Fmt.pr "%14s %12.2f@." label med)
    [ ("off (exabgp)", None); ("30s (quagga)", Some Bgp.Config.default) ]

let ablation_damping () =
  section "ABLATION-DAMPING: flap storm (4 withdraw/announce cycles, 45 s apart)";
  Fmt.pr "%10s %16s %12s %14s %12s@." "damping" "collector-updates" "recovery-s"
    "suppressions" "blackholed";
  List.iter
    (fun damping ->
      let r = Framework.Experiments.flap_run ~n ~damping ~seed:31 ~config () in
      Fmt.pr "%10b %16d %12.1f %14d %12d@." damping
        r.Framework.Experiments.collector_updates_total
        r.Framework.Experiments.recovery_seconds
        r.Framework.Experiments.suppressions_total
        r.Framework.Experiments.blackholed_after_storm)
    [ false; true ]

let placement () =
  section "PLACEMENT: which ASes to centralize (Internet-like topology, withdrawal)";
  List.iter
    (fun placement ->
      print_series
        (Framework.Experiments.placement_sweep ?pool
           ~runs:(if quick then 2 else 5)
           ~ks:(if quick then [ 0; 4; 8 ] else [ 0; 2; 4; 6; 8 ])
           ~config ~placement ()))
    [ Framework.Experiments.Top_degree; Framework.Experiments.Random_choice;
      Framework.Experiments.Stubs_first ]

let churn_load () =
  section "CHURN-LOAD: withdrawal convergence under background flapping (per-peer MRAI coupling)";
  Fmt.pr "%8s %14s %14s@." "sdn" "quiet-Tdown-s" "churny-Tdown-s";
  List.iter
    (fun sdn ->
      let quiet =
        Framework.Experiments.clique_run ~n ~sdn ~event:Framework.Experiments.Withdrawal
          ~seed:59 ~config ()
      in
      let churny =
        Framework.Experiments.churn_run ~n ~sdn ~flap_period_s:20.0 ~seed:59 ~config ()
      in
      Fmt.pr "%8d %14.2f %14.2f@." sdn quiet.Framework.Experiments.seconds
        churny.Framework.Experiments.seconds)
    (if quick then [ 0; 4 ] else [ 0; 4; 8; 12 ])

let table_size () =
  section "TABLE-SIZE: withdrawal convergence vs background prefixes (negative control)";
  Fmt.pr "%12s %12s %10s@." "background" "Tdown-s" "changes";
  List.iter
    (fun background ->
      let r =
        Framework.Experiments.table_size_run ~n ~sdn:0 ~background ~seed:47 ~config ()
      in
      Fmt.pr "%12d %12.2f %10d@." background r.Framework.Experiments.seconds
        r.Framework.Experiments.changes)
    (if quick then [ 0; 4 ] else [ 0; 5; 10; 15 ])

let subcluster () =
  section "SUBCLUSTER: disjoint sub-clusters bridged over the legacy world";
  let r = Framework.Experiments.subcluster_resilience ~config () in
  Fmt.pr "reachable before split:       %b@." r.Framework.Experiments.reachable_before;
  Fmt.pr "reachable after bridge fail:  %b@." r.Framework.Experiments.reachable_after_split;
  Fmt.pr "post-split path via legacy:   %b@." r.Framework.Experiments.used_legacy_bridge;
  Fmt.pr "reachable after recovery:     %b@." r.Framework.Experiments.reachable_after_recovery

let churn (fig2_series : Framework.Experiments.series) =
  section "CHURN: BGP updates seen by the route collector per withdrawal run";
  Fmt.pr "%8s %12s %12s@." "sdn" "mean-updates" "mean-changes";
  List.iter
    (fun (p : Framework.Experiments.point) ->
      let mean f = Engine.Stats.mean (List.map f p.Framework.Experiments.results) in
      Fmt.pr "%8.0f %12.1f %12.1f@." p.Framework.Experiments.x
        (mean (fun r -> float_of_int r.Framework.Experiments.collector_updates))
        (mean (fun r -> float_of_int r.Framework.Experiments.changes)))
    fig2_series.Framework.Experiments.points

(* One CAIDA-graph load + measured withdrawal through the scale driver at
   one shard.  An unsettled load or withdrawal fails the bench instead of
   being printed as a result. *)
let scale () =
  section "SCALE: CAIDA-graph load + measured withdrawal (must settle)";
  let tier1, tier2, stubs, prefixes =
    if quick then (4, 24, 72, 200) else (5, 40, 455, 300)
  in
  let r, _ =
    Framework.Experiments.scale_run ~tier1 ~tier2 ~stubs ~prefixes ~sdn:4 ~seed:9 ~config ()
  in
  let open Framework.Experiments in
  Fmt.pr "graph: %d ASes, %d links, %d SDN members; %d prefixes loaded@." r.ases r.links
    r.sdn_members r.prefixes;
  Fmt.pr "load: %d collector updates, settled=%b@." r.load_updates r.load_settled;
  Fmt.pr "tables: %d Loc-RIB routes, %d Adj-RIB-In routes@." r.rib_routes r.adj_in_routes;
  Fmt.pr "withdrawal: Tdown = %.2f s (simulated), %d control changes@."
    r.withdrawal.seconds r.withdrawal.changes;
  if not (r.load_settled && Float.is_finite r.withdrawal.seconds) then
    failwith "SCALE: the load or the measured withdrawal did not settle"

(* Seeded probe bursts against the forwarding snapshot measure how long
   the data plane black-holes/loops packets after a link failure, per SDN
   membership level.  Every run must end with the verifier finding no
   residual non-delivered pair. *)
let loss () =
  section "LOSS: data-plane loss vs centralization (probe bursts on the fast path)";
  let s =
    Framework.Experiments.loss_sweep ?pool ~n ~runs:(if quick then 2 else 5) ~config ()
  in
  Fmt.pr "%a@." Framework.Experiments.pp_loss_series s;
  write_csv s.Framework.Experiments.ls_label (Framework.Experiments.loss_series_to_csv s);
  let residual_total =
    List.fold_left
      (fun acc (p : Framework.Experiments.loss_point) ->
        List.fold_left
          (fun acc (r : Framework.Experiments.loss_result) ->
            acc + r.Framework.Experiments.residual_issues)
          acc p.Framework.Experiments.lp_results)
      0 s.Framework.Experiments.ls_points
  in
  if residual_total <> 0 then begin
    Fmt.epr "FATAL: verifier found %d residual non-delivered pairs after recovery@."
      residual_total;
    exit 1
  end

let () =
  Fmt.pr "hybridsdn bench harness (n=%d, runs=%d, jobs=%d%s)@." n runs jobs
    (if quick then ", quick" else "");
  let fig2_series = fig2 () in
  rounds ();
  announce ();
  failover ();
  ablation_delay ();
  ablation_mrai ();
  ablation_wrate ();
  ablation_speaker_mrai ();
  ablation_damping ();
  scaling ();
  placement ();
  churn_load ();
  table_size ();
  subcluster ();
  churn fig2_series;
  scale ();
  loss ();
  Option.iter Engine.Pool.shutdown pool;
  Fmt.pr "@.done.@."
