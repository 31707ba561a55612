(* The repository benchmark's workload runner.

     bench.exe run --workload W --seed N --seconds S [--traced]
     bench.exe record-references FROM TO

   [run] executes one workload as the program ships ([Config.default],
   one domain, load generated in-process from the seed) as a closed loop
   of repetitions driven by this one process, each in a forked child,
   until [S] seconds have passed (at least one repetition).  Every layer is measured from outside: the
   runner times its calls into public functions and reads the program's
   own counters.  The last stdout line is one JSON object; perfbench/run.py
   turns it into the benchmark's result line.  [--traced] alternates
   untraced repetitions with repetitions that turn on the scheduler's
   per-category self-time profiling; the per-layer metrics come from the
   latter, the tracing overhead from comparing the two.

   [run] is started from the root of the checkout: the fig2 workload
   checks itself against the withdrawal times in perfbench/fig2_tdown.ref,
   which [record-references] prints. *)

open Framework

(* Host time is the process's CPU time (getrusage, user + system), as in
   the scheduler's own profile.  One domain runs at a time and the
   program does no I/O, so this is the wall-clock time it needs minus the
   time the hypervisor stole from the VM.  On the shared 2-vCPU host the
   benchmark was tuned on, steal reached ~40% of a CPU and moved
   wall-clock medians of identical fig2 runs by up to 85%, while their
   CPU time moved by ~3%. *)
let timed f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* --- Operations and their failures --------------------------------------

   An operation is one measured run or one measured phase.  An operation
   fails when it raises, does not settle, yields a NaN or wrong result,
   or a metric it must produce is missing. *)

let attempted = ref 0

let failures = ref []

let operation name problems =
  incr attempted;
  match problems with
  | [] -> ()
  | p :: _ -> failures := Printf.sprintf "%s: %s" name p :: !failures

let guarded name f =
  try f ()
  with e ->
    operation name [ Printexc.to_string e ];
    None

(* --- Per-repetition accumulator ------------------------------------------ *)

(* Counter families read after every run, as (layer metric, series,
   labels, needs an SDN cluster).  A family a run must have but whose
   series is absent fails that run instead of reading as 0. *)
let families =
  let cat c = [ ("category", c) ] in
  [
    ("bgp.process.events", "sim_events_executed_total", cat "bgp.process", false);
    ("bgp.mrai.events", "sim_events_executed_total", cat "bgp.mrai", false);
    ("net.deliver.events", "sim_events_executed_total", cat "net.deliver", false);
    ("bgp.decision_runs", "bgp_decision_runs_total", [], false);
    ("bgp.best_changes", "bgp_best_changes_total", [], false);
    ("bgp.mrai_deferrals", "bgp_mrai_deferrals_total", [], false);
    ("net.messages_dropped", "net_messages_dropped_total", [], false);
    ("cluster_ctl.recompute.events", "sim_events_executed_total", cat "ctrl.recompute", true);
    ("cluster_ctl.dijkstra_runs", "controller_dijkstra_runs_total", [], true);
    ("cluster_ctl.flow_mods", "controller_flow_mods_total", [], true);
    ("cluster_ctl.prefixes_recomputed", "controller_prefixes_recomputed_total", [], true);
    ("cluster_ctl.recompute_skipped", "controller_recompute_skipped_total", [], true);
    ("sdn.flow_table_misses", "sdn_flow_table_misses_total", [], true);
  ]

type acc = {
  mutable setups : float list; (* one entry per topology generation + create *)
  mutable generate_s : float;
  mutable create_s : float;
  mutable bootstrap_events : int;
  mutable wall_s : float; (* measured phases *)
  mutable load_s : float; (* the phase that installs routes *)
  mutable load_routes : int; (* Loc-RIB routes at its quiescence *)
  mutable probes : int;
  mutable runs : float list; (* host seconds per run, set-up included *)
  mutable events : int; (* events executed in measured phases *)
  mutable minor_words : float;
  counts : (string, float) Hashtbl.t;
  profile : (string, float) Hashtbl.t; (* category -> self seconds *)
  mutable snapshots : int;
  mutable snapshot_s : float;
  mutable burst_s : float;
  mutable burst_words : float;
  mutable verify_s : float;
  mutable switch_s : float; (* [switch_lookups], left out of phases *)
  mutable switch_words : float;
  mutable distinct_full : int;
  mutable retained_words : int;
  mutable top_heap_words : int;
  signature : Buffer.t;
}

let new_acc () =
  {
    setups = [];
    generate_s = 0.0;
    create_s = 0.0;
    bootstrap_events = 0;
    wall_s = 0.0;
    load_s = 0.0;
    load_routes = 0;
    probes = 0;
    runs = [];
    events = 0;
    minor_words = 0.0;
    counts = Hashtbl.create 16;
    profile = Hashtbl.create 16;
    snapshots = 0;
    snapshot_s = 0.0;
    burst_s = 0.0;
    burst_words = 0.0;
    verify_s = 0.0;
    switch_s = 0.0;
    switch_words = 0.0;
    distinct_full = 0;
    retained_words = 0;
    top_heap_words = 0;
    signature = Buffer.create 4096;
  }

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value (Hashtbl.find_opt tbl key) ~default:0.0)

(* Whether set-ups turn on the scheduler's per-category profiling. *)
let profiling = ref false

(* Topology generation plus [Experiment.create] (bootstrap included). *)
let setup acc ~config ~seed gen =
  let spec, g = timed gen in
  let exp, c = timed (fun () -> Experiment.create ~config ~seed spec) in
  acc.generate_s <- acc.generate_s +. g;
  acc.create_s <- acc.create_s +. c;
  acc.setups <- (g +. c) :: acc.setups;
  acc.bootstrap_events <- acc.bootstrap_events + Engine.Sim.executed (Experiment.sim exp);
  Engine.Sim.set_profiling (Experiment.sim exp) !profiling;
  (spec, exp)

(* One measured phase: host time, events and minor words, less the
   layer timing done inside it ([switch_lookups]). *)
let phase acc exp f =
  let sim = Experiment.sim exp in
  let e0 = Engine.Sim.executed sim and w0 = Gc.minor_words () in
  let u0 = acc.switch_s and uw0 = acc.switch_words in
  let r, dt = timed f in
  let dt = dt -. (acc.switch_s -. u0) in
  acc.wall_s <- acc.wall_s +. dt;
  acc.events <- acc.events + Engine.Sim.executed sim - e0;
  acc.minor_words <-
    acc.minor_words +. Gc.minor_words () -. w0 -. (acc.switch_words -. uw0);
  (r, dt)

(* All-pairs probes toward [dsts] (default: every AS), with the address
   bits the probes are sent to. *)
type prober = { network : Network.t; tg : Trafficgen.t; dst_bits : int array }

let prober ?dsts network =
  let host a = Net.Ipv4.addr_to_bits ((Network.plan network).Addressing.host_addr a) in
  let targets = Option.value dsts ~default:(Topology.Spec.asns (Network.spec network)) in
  {
    network;
    tg = Trafficgen.create ?dsts network Trafficgen.All_pairs;
    dst_bits = Array.of_list (List.map host targets);
  }

(* The switch layer, timed from outside in traced repetitions: the
   winning-rule lookup ([Sdn.Flow_table.lookup_idx], which mutates
   nothing) on every SDN switch's flow table for every probed
   destination.  Its time and allocation are left out of the enclosing
   phase. *)
let switch_lookups acc p =
  if !profiling && Network.sdn_asns p.network <> [] then begin
    let w0 = Gc.minor_words () in
    let (), s =
      timed (fun () ->
          List.iter
            (fun asn ->
              match Network.switch p.network asn with
              | Some sw ->
                let table = Sdn.Switch.table sw in
                Array.iter (fun d -> ignore (Sdn.Flow_table.lookup_idx table d)) p.dst_bits
              | None -> ())
            (Network.sdn_asns p.network))
    in
    acc.switch_s <- acc.switch_s +. s;
    acc.switch_words <- acc.switch_words +. Gc.minor_words () -. w0
  end

(* A probe burst against a freshly compiled snapshot, timed in parts. *)
let burst acc p =
  let network = p.network and tg = p.tg in
  let snapshot, s = timed (fun () -> Network.dataplane_snapshot network) in
  switch_lookups acc p;
  let w0 = Gc.minor_words () in
  let epoch, b = timed (fun () -> Trafficgen.burst ~snapshot tg) in
  acc.burst_words <- acc.burst_words +. Gc.minor_words () -. w0;
  acc.snapshots <- acc.snapshots + 1;
  acc.snapshot_s <- acc.snapshot_s +. s;
  acc.burst_s <- acc.burst_s +. b;
  acc.probes <- acc.probes + epoch.Trafficgen.injected;
  epoch

(* One run: an Experiment lifecycle.  Its host time is its set-up plus
   its measured phases; checks made between phases are not counted. *)
let lifecycle acc f =
  let busy () = List.fold_left ( +. ) acc.wall_s acc.setups in
  let b0 = busy () in
  let r = f () in
  acc.runs <- (busy () -. b0) :: acc.runs;
  r

let legacy_loc_rib network =
  Net.Asn.Map.fold (fun _ r n -> n + Bgp.Router.loc_size r) (Network.routers network) 0

(* Close a run: fold its counters and profile into the repetition and
   extend the repetition's signature with its simulated outputs and the
   digest of every series in its registry. *)
let finish_run acc exp ~name ~before ~outputs =
  let after = Experiment.final_metrics exp in
  let sdn = Network.sdn_asns (Experiment.network exp) <> [] in
  let missing =
    List.filter_map
      (fun (metric, series, labels, needs_sdn) ->
        if needs_sdn && not sdn then None
        else
          match Counters.delta ~labels ~before ~after series with
          | Some v ->
            bump acc.counts metric v;
            None
          | None ->
            let labels = List.map (fun (k, v) -> Printf.sprintf "{%s=%s}" k v) labels in
            Some (Printf.sprintf "counter %s%s missing" series (String.concat "" labels)))
      families
  in
  acc.distinct_full <- (Bgp.Attrs.intern_stats ()).Bgp.Attrs.distinct_full;
  List.iter
    (fun (r : Engine.Sim.profile_row) -> bump acc.profile r.category r.seconds)
    (Engine.Sim.profile (Experiment.sim exp));
  Printf.bprintf acc.signature "%s %s %s\n" name outputs
    (Digest.to_hex (Digest.string (Engine.Metrics.to_prometheus after)));
  missing

let tdown_us (m : Convergence.measurement) =
  Option.map Engine.Time.to_us m.Convergence.convergence

let show_us = function Some us -> string_of_int us | None -> "none"

(* --- Workload: fig2_clique16 --------------------------------------------

   The paper's Fig. 2: announce then withdraw the legacy origin's prefix
   on a 16-clique with 0, 2, ..., 14 SDN members, [fig2_trials] seeds per
   point.  Each run is a whole Experiment lifecycle, so a repetition is
   32 short runs. *)

let fig2_n = 16

let fig2_points = List.init 8 (fun i -> 2 * i)

let fig2_trials = 4

let fig2_run_seed seed trial = (1000 * seed) + trial

type refs = (int * int * int, int) Hashtbl.t (* (seed, sdn, run seed) -> Tdown us *)

let load_refs path : refs =
  let tbl = Hashtbl.create 4096 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 && line.[0] <> '#' then
         Scanf.sscanf line "%d %d %d %d" (fun s k r t -> Hashtbl.replace tbl (s, k, r) t)
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let ref_checked = ref 0

(* Returns each run's (sdn, run seed, Tdown). *)
let fig2_rep acc ~seed ~(refs : refs) =
  let origin = Topology.Artificial.asn 0 in
  List.concat_map
    (fun trial ->
      List.filter_map
        (fun sdn ->
          let run_seed = fig2_run_seed seed trial in
          let name = Printf.sprintf "fig2 sdn=%d seed=%d" sdn run_seed in
          guarded name (fun () ->
              lifecycle acc @@ fun () ->
              let _, exp =
                setup acc ~config:Config.default ~seed:run_seed (fun () ->
                    Topology.Spec.with_sdn
                      (Topology.Artificial.clique fig2_n)
                      (List.init sdn (fun i -> Topology.Artificial.asn (fig2_n - 1 - i))))
              in
              let network = Experiment.network exp in
              let prefix = Experiment.default_prefix exp origin in
              let probes = prober ~dsts:[ origin ] network in
              let before = Experiment.final_metrics exp in
              let ann, ann_s =
                phase acc exp (fun () ->
                    Experiment.measure exp ~prefix (fun () ->
                        ignore (Experiment.announce exp origin)))
              in
              let ann_probe = burst acc probes in
              acc.load_s <- acc.load_s +. ann_s;
              let routes = legacy_loc_rib network in
              acc.load_routes <- acc.load_routes + routes;
              let wd, _ =
                phase acc exp (fun () ->
                    Experiment.measure exp ~prefix (fun () ->
                        ignore (Experiment.withdraw exp origin)))
              in
              let wd_probe = burst acc probes in
              let tdown = tdown_us wd in
              let problems =
                List.concat
                  [
                    (if tdown_us ann = None then [ "announcement changed nothing" ] else []);
                    (if ann_probe.Trafficgen.delivered <> fig2_n - 1 then
                       [ Printf.sprintf "after announce %d/%d ASes reach the prefix"
                           ann_probe.Trafficgen.delivered (fig2_n - 1) ]
                     else []);
                    (if routes <> fig2_n - sdn then
                       [ Printf.sprintf "%d Loc-RIB routes, expected %d" routes (fig2_n - sdn) ]
                     else []);
                    (match tdown with None -> [ "withdrawal Tdown is not finite" ] | Some _ -> []);
                    (if wd_probe.Trafficgen.delivered <> 0 then
                       [ Printf.sprintf "after withdrawal %d ASes still reach the prefix"
                           wd_probe.Trafficgen.delivered ]
                     else []);
                    (match Hashtbl.find_opt refs (seed, sdn, run_seed) with
                    | Some r ->
                      incr ref_checked;
                      if Some r <> tdown then
                        [ Printf.sprintf "Tdown %s us, reference %d us" (show_us tdown) r ]
                      else []
                    | None -> []);
                    finish_run acc exp ~name
                      ~before
                      ~outputs:
                        (Printf.sprintf "ann=%s wd=%s changes=%d routes=%d events=%d"
                           (show_us (tdown_us ann)) (show_us tdown) wd.Convergence.changes routes
                           (Engine.Sim.executed (Experiment.sim exp)));
                  ]
              in
              operation name problems;
              Some (sdn, run_seed, tdown)))
        fig2_points)
    (List.init fig2_trials Fun.id)

(* --- Workload: caida_load -------------------------------------------------

   A 500-AS generated CAIDA graph, 300 prefixes originated round-robin
   across the stubs and run to quiescence, then the origin stub's own
   prefix announced and withdrawn.  No SDN members; the collector keeps
   counts only.  Announcement-heavy with a large working set.

   Both CAIDA workloads keep their graph fixed, like one real
   AS-relationship snapshot, and draw everything else from the seed:
   here the emulation seed and the order of the stubs, which places the
   prefixes and picks the origin.  A graph drawn per seed would move
   set-up time and heap by the graph's size rather than by the code. *)

let load_tier1, load_tier2, load_stubs, load_prefixes = (5, 40, 455, 300)

let load_graph_seed = 11

let load_config = { Config.default with Config.collector_retention = Bgp.Collector.Counts_only }

let load_spec () =
  Topology.Caida.generate ~tier1:load_tier1 ~tier2:load_tier2 ~stubs:load_stubs
    (Engine.Rng.create load_graph_seed)

(* The stubs in seeded order: the first is the origin, and the 300
   prefixes go round-robin over the order. *)
let load_stubs_for seed =
  Engine.Rng.shuffle (Engine.Rng.create seed)
    (Topology.Caida.stub_asns ~tier1:load_tier1 ~tier2:load_tier2 ~stubs:load_stubs)

let load_commands stubs =
  let stubs = Array.of_list stubs in
  List.init load_prefixes (fun m -> (stubs.(m mod Array.length stubs), Experiments.scale_prefix m))

let load_rep acc ~seed =
  let name = Printf.sprintf "caida_load seed=%d" seed in
  ignore
    (guarded name (fun () ->
         lifecycle acc @@ fun () ->
         let spec, exp = setup acc ~config:load_config ~seed load_spec in
         let network = Experiment.network exp in
         let stubs = load_stubs_for seed in
         let origin = List.hd stubs in
         let before = Experiment.final_metrics exp in
         let settled, load_s =
           phase acc exp (fun () ->
               List.iter (fun (asn, p) -> Network.originate network asn p) (load_commands stubs);
               match Experiment.settle exp with _ -> true | exception Failure _ -> false)
         in
         let routes = legacy_loc_rib network in
         let expected = Topology.Spec.node_count spec * load_prefixes in
         acc.load_s <- acc.load_s +. load_s;
         acc.load_routes <- acc.load_routes + routes;
         operation (name ^ " load")
           ((if settled then [] else [ "load did not settle" ])
           @
           if routes <> expected then
             [ Printf.sprintf "%d Loc-RIB routes at quiescence, expected %d" routes expected ]
           else []);
         let prefix = Experiment.default_prefix exp origin in
         let probes = prober ~dsts:[ origin ] network in
         let everyone = Topology.Spec.node_count spec - 1 in
         let measured what action ~reached =
           let m, _ = phase acc exp (fun () -> Experiment.measure exp ~prefix action) in
           let probe = burst acc probes in
           operation
             (Printf.sprintf "%s %s" name what)
             ((match tdown_us m with None -> [ what ^ " did not converge" ] | Some _ -> [])
             @
             if probe.Trafficgen.delivered <> reached then
               [ Printf.sprintf "after %s %d ASes reach the prefix, expected %d" what
                   probe.Trafficgen.delivered reached ]
             else []);
           m
         in
         let ann =
           measured "announce" (fun () -> ignore (Experiment.announce exp origin)) ~reached:everyone
         in
         let wd =
           measured "withdrawal" (fun () -> ignore (Experiment.withdraw exp origin)) ~reached:0
         in
         let missing =
           finish_run acc exp ~name ~before
             ~outputs:
               (Printf.sprintf "routes=%d ann=%s wd=%s changes=%d events=%d" routes
                  (show_us (tdown_us ann)) (show_us (tdown_us wd)) wd.Convergence.changes
                  (Engine.Sim.executed (Experiment.sim exp)))
         in
         operation (name ^ " counters") missing;
         Some ()))

(* The same graph and load through [Sharding.run] on two domains — run
   once, in traced mode only, for the shard layer's counters: its wall
   time varies too much between identical runs on a shared 2-core host
   to serve as an end-to-end metric. *)
let shard_pass ~seed =
  let name = Printf.sprintf "caida_load sharded seed=%d" seed in
  guarded name (fun () ->
      let spec = load_spec () in
      let stubs = load_stubs_for seed in
      let origin = List.hd stubs in
      let prefix = (Addressing.plan spec).Addressing.origin_prefix origin in
      let phases =
        [
          {
            Sharding.commands =
              List.map (fun (a, p) -> Sharding.Originate (a, p)) (load_commands stubs);
            measured = None;
          };
          { Sharding.commands = [ Sharding.Originate (origin, prefix) ]; measured = Some prefix };
          { Sharding.commands = [ Sharding.Withdraw (origin, prefix) ]; measured = Some prefix };
        ]
      in
      let r =
        Sharding.run ~shards:2 ~partition_seed:seed ~clock:Unix.gettimeofday ~config:load_config
          ~seed ~phases spec
      in
      let expected = Topology.Spec.node_count spec * load_prefixes in
      let withdrawn =
        match List.rev r.Sharding.phases with
        | { Sharding.measurement = Some m; _ } :: _ -> tdown_us m <> None
        | _ -> false
      in
      operation name
        ((if r.Sharding.settled && List.length r.Sharding.phases = 3 then []
          else [ "sharded run did not settle" ])
        @ (if r.Sharding.rib_routes <> expected then
             [ Printf.sprintf "%d Loc-RIB routes, expected %d" r.Sharding.rib_routes expected ]
           else [])
        @ if withdrawn then [] else [ "sharded withdrawal did not converge" ]);
      Some r)

(* --- Workload: caida_dataplane --------------------------------------------

   A 100-AS CAIDA graph in which every AS originates its prefix and the
   8 top-degree ASes are SDN members.  For 4 multi-homed stubs drawn
   from the seed, the link to the stub's first provider fails and later
   recovers.  After each event a snapshot is recompiled and an all-pairs
   probe burst fired every 100 ms of simulated time for a fixed 2.5 s
   window, then once more at quiescence, which must lose nothing.  The
   fixed window keeps the data-plane work of a run independent of how
   long loss lasts: most fail events heal in ~2 s behind the controller's
   recompute delay, but one that waits on a 30 s MRAI round would
   multiply its run's work.  The first loss-free instant is still
   recorded in the signature. *)

let dp_tier1, dp_tier2, dp_stubs, dp_members, dp_events = (2, 10, 88, 8, 4)

let dp_graph_seed = 61

let dp_interval = Engine.Time.ms 100

let dp_window = Engine.Time.ms 2500

let dp_spec () =
  let spec =
    Topology.Caida.generate ~tier1:dp_tier1 ~tier2:dp_tier2 ~stubs:dp_stubs
      (Engine.Rng.create dp_graph_seed)
  in
  let degree a = List.length (Topology.Spec.neighbors spec a) in
  let top =
    List.stable_sort (fun a b -> Int.compare (degree b) (degree a)) (Topology.Spec.asns spec)
  in
  Topology.Spec.with_sdn spec (List.filteri (fun i _ -> i < dp_members) top)

let dp_rep acc ~seed =
  let name = Printf.sprintf "caida_dataplane seed=%d" seed in
  ignore
    (guarded name (fun () ->
         lifecycle acc @@ fun () ->
         let spec, exp = setup acc ~config:Config.default ~seed dp_spec in
         let network = Experiment.network exp in
         let sim = Experiment.sim exp in
         let asns = Topology.Spec.asns spec in
         let before = Experiment.final_metrics exp in
         let (), load_s =
           phase acc exp (fun () ->
               List.iter (fun a -> ignore (Experiment.announce exp a)) asns;
               ignore (Experiment.settle exp))
         in
         let routes = legacy_loc_rib network in
         let expected = List.length (Network.legacy_asns network) * List.length asns in
         acc.load_s <- acc.load_s +. load_s;
         acc.load_routes <- acc.load_routes + routes;
         let multihomed =
           Topology.Caida.stub_asns ~tier1:dp_tier1 ~tier2:dp_tier2 ~stubs:dp_stubs
           |> List.filter (fun a -> List.length (Topology.Spec.neighbors spec a) >= 2)
           |> Engine.Rng.sample (Engine.Rng.create seed) dp_events
         in
         operation (name ^ " load")
           ((if routes <> expected then
               [ Printf.sprintf "%d Loc-RIB routes at quiescence, expected %d" routes expected ]
             else [])
           @
           if List.length multihomed <> dp_events then
             [ Printf.sprintf "only %d multi-homed stubs" (List.length multihomed) ]
           else []);
         let probes = prober network in
         let outputs = Buffer.create 256 in
         (* One link event: act, probe over the window, run to quiescence,
            probe once more. *)
         let event stub what action =
           let prefix = Experiment.default_prefix exp stub in
           let healed = ref None in
           let rec sample t0 () =
             let e = burst acc probes in
             let offset = Engine.Time.diff (Engine.Sim.now sim) t0 in
             if Trafficgen.epoch_lost e = 0 && !healed = None then
               healed := Some (Engine.Time.to_us offset);
             if Engine.Time.(add offset dp_interval <= dp_window) then
               ignore (Engine.Sim.schedule_after sim dp_interval (sample t0))
           in
           let (m, final), _ =
             phase acc exp (fun () ->
                 let m =
                   Experiment.measure exp ~prefix (fun () ->
                       action ();
                       sample (Engine.Sim.now sim) ())
                 in
                 (m, burst acc probes))
           in
           Printf.bprintf outputs " %s:%s:%s" what (show_us (tdown_us m)) (show_us !healed);
          ((match tdown_us m with None -> [ what ^ " changed nothing" ] | Some _ -> [])
           @
           if Trafficgen.epoch_lost final > 0 then
             [ Printf.sprintf "%s: %d probes lost at quiescence" what
                 (Trafficgen.epoch_lost final) ]
           else [])
         in
         List.iter
           (fun stub ->
             let provider = List.hd (Topology.Spec.neighbors spec stub) in
             let ev = Printf.sprintf "%s stub=%s" name (Net.Asn.to_string stub) in
             operation (ev ^ " fail")
               (event stub "fail" (fun () -> Experiment.fail_link exp stub provider));
             let recovered =
               event stub "recover" (fun () -> Experiment.recover_link exp stub provider)
             in
             let report, v = timed (fun () -> Fwd_verify.verify network) in
             acc.verify_s <- acc.verify_s +. v;
             let bad = List.length report.Fwd_verify.issues in
             operation (ev ^ " recover")
               (recovered
               @
               if bad > 0 then [ Printf.sprintf "%d non-delivered pairs after recovery" bad ]
               else []))
           multihomed;
         let missing =
           finish_run acc exp ~name ~before
             ~outputs:
               (Printf.sprintf "routes=%d stubs=%d events=%d%s" routes (List.length multihomed)
                  (Engine.Sim.executed sim) (Buffer.contents outputs))
         in
         operation (name ^ " counters") missing;
         Some ()))

(* --- Driving a workload ----------------------------------------------------- *)

(* Extra set-ups before the timed loop, so [setup_s] is a median even
   when a repetition is one long run. *)
let extra_setups = function
  | "caida_load" -> 24
  | "caida_dataplane" -> 40
  | _ -> 0

(* Nearest-rank percentile; NaN for no samples (every run failed). *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* What a repetition's process sends back. *)
type outcome = { acc : acc; attempted : int; failures : string list; ref_checked : int }

(* Each repetition (and the extra set-ups) runs in a forked child process
   on its only domain and sends its accumulator back through a pipe.
   Every child starts from the parent's state before any repetition:
   empty attribute-interner tables and a small heap.  So every repetition
   is the same cold replay whatever the repetition count, nothing one
   repetition leaves behind reaches the next, and each grows its heap
   from nothing, as a fresh run of the program does.  A child that dies
   without a result fails the repetition. *)
let in_child f =
  flush_all ();
  let acc = new_acc () in
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    attempted := 0;
    failures := [];
    ref_checked := 0;
    let code =
      match f acc with
      | () ->
        let oc = Unix.out_channel_of_descr w in
        Marshal.to_channel oc
          { acc; attempted = !attempted; failures = !failures; ref_checked = !ref_checked }
          [];
        close_out oc;
        0
      | exception e ->
        prerr_endline (Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let got : outcome option = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
    close_in ic;
    match (got, snd (Unix.waitpid [] pid)) with
    | Some o, Unix.WEXITED 0 ->
      attempted := !attempted + o.attempted;
      failures := o.failures @ !failures;
      ref_checked := !ref_checked + o.ref_checked;
      o.acc
    | _ ->
      operation "repetition process" [ "exited without a result" ];
      acc)

let json_string s = "\"" ^ String.escaped s ^ "\""

let json_object ppf fields =
  Printf.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) fields))

(* JSON has no NaN; Python's reader accepts this spelling, and a NaN only
   appears next to a failed operation. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "NaN"

let run ~workload ~seed ~seconds ~traced =
  let refs = load_refs "perfbench/fig2_tdown.ref" in
  let rep =
    match workload with
    | "fig2_clique16" -> fun acc -> ignore (fig2_rep acc ~seed ~refs)
    | "caida_load" -> fun acc -> load_rep acc ~seed
    | "caida_dataplane" -> fun acc -> dp_rep acc ~seed
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let extra =
    in_child (fun acc ->
        for _ = 1 to extra_setups workload do
          ignore
            (match workload with
            | "caida_load" -> setup acc ~config:load_config ~seed load_spec
            | _ -> setup acc ~config:Config.default ~seed dp_spec)
        done)
  in
  let repetition profiled =
    profiling := profiled;
    in_child (fun acc ->
        let live0 = live_words () in
        rep acc;
        acc.retained_words <- live_words () - live0;
        acc.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words)
  in
  (* With [traced], repetitions alternate untraced and traced, so the
     tracing overhead compares repetitions made under the same host load. *)
  let t0 = Unix.gettimeofday () in
  let rec loop i reps =
    let profiled = traced && i mod 2 = 1 in
    let reps = (repetition profiled, profiled) :: reps in
    if Unix.gettimeofday () -. t0 < seconds || (traced && i = 0) then loop (i + 1) reps
    else List.rev reps
  in
  let reps = loop 0 [] in
  let shard = if traced && workload = "caida_load" then shard_pass ~seed else None in
  let signature = Buffer.contents (fst (List.hd reps)).signature in
  List.iteri
    (fun i (acc, _) ->
      if i > 0 then
        operation
          (Printf.sprintf "repetition %d determinism" (i + 1))
          (if Buffer.contents acc.signature = signature then []
           else [ "simulated outputs or counters differ from the first repetition" ]))
    reps;
  let plain = List.filter_map (fun (a, p) -> if p then None else Some a) reps in
  let profiled = List.filter_map (fun (a, p) -> if p then Some a else None) reps in
  let over reps f = Engine.Stats.median (List.map f reps) in
  let per_rep = over plain in
  let setups = extra.setups @ List.concat_map (fun a -> a.setups) plain in
  let setup_s =
    (* fig2 sets up once per short run: its set-up unit is a repetition *)
    if workload = "fig2_clique16" then per_rep (fun a -> List.fold_left ( +. ) 0.0 a.setups)
    else Engine.Stats.median setups
  in
  let runs = List.concat_map (fun a -> a.runs) plain in
  let n_runs = List.length runs in
  let e2e =
    [
      ("setup_s", setup_s);
      ("wall_s", per_rep (fun a -> a.wall_s));
      ("run_wall_p50_s", percentile runs 0.5);
      ("run_wall_p90_s", percentile runs (if n_runs >= 100 then 0.9 else 1.0));
      ("load_routes_per_s", per_rep (fun a -> float_of_int a.load_routes /. a.load_s));
      ("probes_per_s", per_rep (fun a -> float_of_int a.probes /. a.wall_s));
      ("peak_heap_mb", per_rep (fun a -> mb a.top_heap_words));
      ("retained_mb", per_rep (fun a -> mb a.retained_words));
    ]
  in
  (* Layers come from the traced repetitions when there are any. *)
  let layer_reps = if traced then profiled else plain in
  let per_rep = over layer_reps in
  let first = List.hd layer_reps in
  let count a k = Option.value (Hashtbl.find_opt a.counts k) ~default:0.0 in
  let self a c = Option.value (Hashtbl.find_opt a.profile c) ~default:0.0 in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let self_total a = Hashtbl.fold (fun _ s acc -> acc +. s) a.profile 0.0 in
  List.iteri
    (fun i a ->
      operation
        (Printf.sprintf "traced repetition %d self time" (i + 1))
        (* the profile can also hold switch lookups made inside events *)
        (let wall = a.wall_s +. a.switch_s in
         if self_total a <= wall then []
         else [ Printf.sprintf "self times sum to %.3f s > wall %.3f s" (self_total a) wall ]))
    profiled;
  let shard_stats =
    match shard with
    | Some r ->
      let s = r.Sharding.stats in
      let executed = Array.fold_left ( + ) 0 s.Engine.Shard.executed in
      [
        ("engine.shard.epochs", float_of_int s.Engine.Shard.epochs);
        ("engine.shard.stall_s", Array.fold_left ( +. ) 0.0 s.Engine.Shard.stall_s);
        ( "engine.shard.events_per_epoch",
          ratio (float_of_int executed) (float_of_int s.Engine.Shard.epochs) );
        ("topology.partition.cut_links", float_of_int r.Sharding.cut_links);
      ]
    | None ->
      [
        ("engine.shard.epochs", 0.0);
        ("engine.shard.stall_s", 0.0);
        ("engine.shard.events_per_epoch", 0.0);
        ("topology.partition.cut_links", 0.0);
      ]
  in
  let layers =
    [
      ("engine.events", float_of_int first.events);
      ("engine.minor_words_per_event", per_rep (fun a -> a.minor_words /. float_of_int a.events));
      ( "engine.trace_overhead_ratio",
        if traced then over profiled (fun a -> a.wall_s) /. over plain (fun a -> a.wall_s)
        else 1.0 );
    ]
    @ shard_stats
    @ [
        ("bgp.process.events", count first "bgp.process.events");
        ("bgp.process.self_s", per_rep (fun a -> self a "bgp.process"));
        ("bgp.mrai.events", count first "bgp.mrai.events");
        ("bgp.mrai.self_s", per_rep (fun a -> self a "bgp.mrai"));
        ("bgp.decision_runs", count first "bgp.decision_runs");
        ("bgp.best_changes", count first "bgp.best_changes");
        ( "bgp.best_change_ratio",
          ratio (count first "bgp.best_changes") (count first "bgp.decision_runs") );
        ("bgp.mrai_deferrals", count first "bgp.mrai_deferrals");
        ("bgp.attrs.distinct_full", float_of_int first.distinct_full);
        ( "bgp.attrs.sets_per_route",
          ratio (float_of_int first.distinct_full) (float_of_int first.load_routes) );
        ("cluster_ctl.recompute.events", count first "cluster_ctl.recompute.events");
        ("cluster_ctl.recompute.self_s", per_rep (fun a -> self a "ctrl.recompute"));
        ( "cluster_ctl.recompute_skip_ratio",
          let skipped = count first "cluster_ctl.recompute_skipped" in
          ratio skipped (skipped +. count first "cluster_ctl.prefixes_recomputed") );
        ("cluster_ctl.dijkstra_runs", count first "cluster_ctl.dijkstra_runs");
        ("cluster_ctl.flow_mods", count first "cluster_ctl.flow_mods");
        ("sdn.switch.self_s", per_rep (fun a -> a.switch_s));
        ("sdn.flow_table_misses", count first "sdn.flow_table_misses");
        ("net.deliver.events", count first "net.deliver.events");
        ("net.deliver.self_s", per_rep (fun a -> self a "net.deliver"));
        ("net.messages_dropped", count first "net.messages_dropped");
        ("net.dataplane.snapshots", float_of_int first.snapshots);
        ( "net.dataplane.us_per_snapshot",
          per_rep (fun a -> 1e6 *. ratio a.snapshot_s (float_of_int a.snapshots)) );
        ( "net.dataplane.ns_per_probe",
          per_rep (fun a -> 1e9 *. ratio a.burst_s (float_of_int a.probes)) );
        ( "net.dataplane.words_per_probe",
          per_rep (fun a -> ratio a.burst_words (float_of_int a.probes)) );
        ("topology.generate_s", per_rep (fun a -> a.generate_s));
        ("framework.create_s", per_rep (fun a -> a.create_s));
        ("framework.bootstrap_events", float_of_int first.bootstrap_events);
        ("framework.verify_s", per_rep (fun a -> a.verify_s));
      ]
  in
  let metrics fields =
    Printf.sprintf "{%s}"
      (String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ num v) fields))
  in
  let digest = Digest.to_hex (Digest.string signature) in
  Printf.printf
    "%s seed=%d reps=%d (traced %d) runs=%d run_wall_p90=%s reference_checks=%d \
     signature=%s\n"
    workload seed (List.length reps) (List.length profiled) n_runs
    (if n_runs >= 100 then "p90" else Printf.sprintf "max of %d runs" n_runs)
    !ref_checked digest;
  List.iter (fun f -> Printf.printf "failed: %s\n" f) (List.rev !failures);
  json_object stdout
    [
      ("attempted", string_of_int !attempted);
      ("failed", string_of_int (List.length !failures));
      ("signature", json_string digest);
      ("e2e", metrics e2e);
      ("layers", metrics layers);
    ];
  print_newline ()

(* Reference Withdrawal times for driver seeds [from..upto]. *)
let record_references ~from ~upto =
  print_endline "# driver-seed sdn run-seed tdown-us  (perfbench/bench.exe record-references)";
  for seed = from to upto do
    List.iter
      (fun (sdn, run_seed, tdown) ->
        Printf.printf "%d %d %d %s\n" seed sdn run_seed (show_us tdown))
      (fig2_rep (new_acc ()) ~seed ~refs:(Hashtbl.create 1))
  done;
  if !failures <> [] then begin
    List.iter prerr_endline !failures;
    exit 1
  end

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref nan and traced = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (at least one repetition)");
      ("--traced", Arg.Set traced, " alternate untraced and profiled repetitions");
    ]
  in
  let positional = ref [] in
  Arg.parse specs
    (fun a -> positional := !positional @ [ a ])
    "bench.exe run|record-references ...";
  match !positional with
  | [ "run" ] when Float.is_finite !seconds ->
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:!traced
  | [ "record-references"; a; b ] ->
    record_references ~from:(int_of_string a) ~upto:(int_of_string b)
  | _ ->
    prerr_endline "usage: bench.exe run --workload W --seed N --seconds S [--traced]";
    prerr_endline "       bench.exe record-references FROM TO";
    exit 2
