(* Sharded single-run execution: one simulation partitioned across N
   domains, bit-identical to the same run at shards = 1.

   The scheme is REPLICATED CONSTRUCTION, PARTITIONED EXECUTION.  Every
   shard builds the complete [Network] from the same (spec, config,
   seed) — construction happens in a fixed order, so every per-component
   RNG stream is split identically on every shard — but only the nodes a
   shard OWNS (per the deterministic {!Topology.Partition}) come alive:
   [Network.start] and link watchers are ownership-gated, and the fabric
   routes sends towards non-owned nodes into a per-epoch outbox that
   {!Engine.Shard} exchanges at the barrier.  Injected deliveries carry
   the canonical (source node, per-channel sequence) key the sending
   shard assigned, and every sim runs in {!Engine.Sim.Canonical} order,
   so the merged event order is independent of the partitioning.

   Driver commands (originate/withdraw/link events) are replicated: one
   keyed driver event per phase executes in EVERY shard at the same
   instant — link flips apply to each shard's replica of the topology,
   router actions only to the owner — which keeps link state and
   measurement baselines consistent without any cross-shard control
   channel.  Phases are scheduled at global quiescence (all queues
   drained), at [max shard clock + 1s], so multi-phase experiments keep
   the settle-then-act structure of their sequential counterparts.

   What is NOT supported: lossy links (the loss draw would consume a
   shared RNG stream in partition-dependent order — refused up front)
   and causal tracing (span ids are assigned in execution order within a
   shard; forced to [Disabled]). *)

type command =
  | Originate of Net.Asn.t * Net.Ipv4.prefix
  | Withdraw of Net.Asn.t * Net.Ipv4.prefix
  | Fail_link of Net.Asn.t * Net.Asn.t
  | Recover_link of Net.Asn.t * Net.Asn.t

type phase = { commands : command list; measured : Net.Ipv4.prefix option }

type phase_outcome = {
  started_at : Engine.Time.t;  (** the instant the phase's commands executed *)
  ended_at : Engine.Time.t;  (** global quiescence closing the phase *)
  collector_updates : int;  (** collector events during the phase *)
  measurement : Convergence.measurement option;
  host_seconds : float;  (** shard 0's [clock] time from commands to quiescence *)
}

type result = {
  shards : int;
  partition_sizes : int array;
  cut_links : int;
  phases : phase_outcome list;
  metrics : Engine.Metrics.snapshot;  (** merged across shards *)
  collector_last : (Net.Ipv4.prefix * Engine.Time.t) list;
  collector_total : int;
  rib_routes : int;
  adj_in_routes : int;
  end_time : Engine.Time.t;
  settled : bool;
  stats : Engine.Shard.stats;
}

(* Per-shard, per-phase journal entry; merged on the caller after the
   run.  All fields are plain data, safe to move across domains. *)
type phase_log = {
  l_start : Engine.Time.t;
  l_end : Engine.Time.t;
  l_changes : int;
  l_last_change : Engine.Time.t option;
  l_collector : int;
  l_host : float;
}

type shard_out = {
  o_phases : phase_log list;  (* phase order *)
  o_metrics : Engine.Metrics.snapshot;
  o_collector_last : (Net.Ipv4.prefix * Engine.Time.t) list;
  o_collector_total : int;
  o_rib : int;
  o_adj : int;
  o_now : Engine.Time.t;
}

let phase_gap = Engine.Time.sec 1

(* The conservative lookahead: a lower bound on EVERY link's delay —
   including intra-shard ones, so the epoch structure (and with it the
   budget/quiescence decision points) is the same for every shard count,
   N = 1 included. *)
let lookahead_of ~config spec =
  let open Engine.Time in
  let base = config.Config.collector_link_delay in
  let base =
    if Topology.Spec.sdn_asns spec <> [] then min base config.Config.control_link_delay
    else base
  in
  List.fold_left
    (fun acc (l : Topology.Spec.link_spec) ->
      match l.Topology.Spec.delay_us with
      | Some us -> min acc (Engine.Time.us us)
      | None -> min acc config.Config.default_link_delay)
    base (Topology.Spec.links spec)

(* Gauges that record a "latest simulated instant" must merge by max;
   everything else (counts, including gauges only the owning shard ever
   moves off 0) merges by sum. *)
let merge_resolve ~name ~labels:_ =
  if String.equal name "convergence_last_change_seconds" then `Max else `Sum

(* Driver-command bookkeeping events execute once per SHARD, not once
   per run — drop their category series before merging so the merged
   snapshot matches what a single shard records. *)
let strip_cmd_series (snap : Engine.Metrics.snapshot) =
  let is_cmd (s : Engine.Metrics.sample) =
    List.exists
      (fun (k, v) -> String.equal k "category" && String.equal v "shard.cmd")
      s.Engine.Metrics.labels
  in
  {
    snap with
    Engine.Metrics.samples = List.filter (fun s -> not (is_cmd s)) snap.Engine.Metrics.samples;
  }

let run ?(shards = 1) ?(partition_seed = 0) ?budget ?clock ~config ~seed ~phases spec =
  if shards < 1 then invalid_arg "Sharding.run: shards must be >= 1";
  let lookahead = lookahead_of ~config spec in
  if Engine.Time.(lookahead <= Engine.Time.span_zero) then
    invalid_arg "Sharding.run: zero-delay link defeats the epoch lookahead";
  (* causal tracing assigns span ids in execution order within one sim —
     meaningless across shards; keep sharded runs comparable by forcing
     it off for every N, including 1 *)
  let config = { config with Config.causal = Engine.Causal.Disabled } in
  (* host time of each phase; the merge keeps shard 0's *)
  let host_clock = Option.value clock ~default:(fun () -> 0.) in
  let partition = Topology.Partition.compute ~seed:partition_seed ~shards spec in
  let shard_of_node node =
    if node < 0 then 0 (* collector and controller live with the SDN cluster *)
    else Topology.Partition.shard_of partition (Net.Asn.of_int node)
  in
  let n_phases = List.length phases in
  let make i =
    let owned node = shard_of_node node = i in
    let network = Network.create ~config ~order:Engine.Sim.Canonical ~owned ~seed spec in
    let sim = Network.sim network in
    let fabric = Network.fabric network in
    List.iter
      (fun l ->
        if Net.Link.loss l > 0.0 then
          invalid_arg "Sharding.run: lossy links are not supported in sharded mode")
      (Net.Netsim.links fabric);
    let watcher = Convergence.attach network in
    let collector = Network.collector network in
    (* cross-shard exchange: sends towards non-owned nodes buffer here *)
    let outbox = ref [] in
    Net.Netsim.set_remote_route fabric ~local:owned ~route:(fun r ->
        outbox := (shard_of_node r.Net.Netsim.r_dst, r) :: !outbox);
    let flush () =
      let out = List.rev !outbox in
      outbox := [];
      out
    in
    let inject ~src:_ msgs =
      List.iter
        (fun r ->
          Net.Netsim.inject_remote fabric
            { r with Net.Netsim.r_payload = Payload.rehash r.Net.Netsim.r_payload })
        msgs
    in
    (* driver events are replicated in every shard; exclude them from the
       budget so the "real" event count is partition-independent *)
    let cmd_events = ref 0 in
    let real_executed () = Engine.Sim.executed sim - !cmd_events in
    let cmd_seq = ref 0 in
    let journal = ref [] in
    let remaining = ref phases in
    let pending = ref None in
    let exec_command = function
      | Originate (asn, prefix) ->
        if owned (Net.Asn.to_int asn) then Network.originate network asn prefix
      | Withdraw (asn, prefix) ->
        if owned (Net.Asn.to_int asn) then Network.withdraw network asn prefix
      | Fail_link (a, b) -> Network.fail_link network a b (* replicated link state *)
      | Recover_link (a, b) -> Network.recover_link network a b
    in
    let finalize_pending ~max_now =
      match !pending with
      | None -> ()
      | Some (start, measured, changes_before, collector_before, host_before) ->
        let changes, last_change =
          match measured with
          | None -> (0, None)
          | Some p ->
            let changes = Convergence.control_changes watcher p - changes_before in
            let last =
              match Convergence.last_control_change watcher p with
              | Some t when Engine.Time.(t >= start) -> Some t
              | Some _ | None -> None
            in
            (changes, last)
        in
        journal :=
          {
            l_start = start;
            l_end = max_now;
            l_changes = changes;
            l_last_change = last_change;
            l_collector = Bgp.Collector.event_count collector - collector_before;
            l_host = host_clock () -. host_before;
          }
          :: !journal;
        pending := None
    in
    let on_quiescent ~max_now =
      finalize_pending ~max_now;
      match !remaining with
      | [] -> false
      | phase :: rest ->
        remaining := rest;
        let at = Engine.Time.add max_now phase_gap in
        let key = { Engine.Sim.kclass = -1; knode = 0; kseq = !cmd_seq } in
        incr cmd_seq;
        ignore
          (Engine.Sim.schedule_at ~category:"shard.cmd" ~key sim at (fun () ->
               incr cmd_events;
               let changes_before =
                 match phase.measured with
                 | Some p -> Convergence.control_changes watcher p
                 | None -> 0
               in
               pending :=
                 Some
                   ( at,
                     phase.measured,
                     changes_before,
                     Bgp.Collector.event_count collector,
                     host_clock () );
               List.iter exec_command phase.commands));
        true
    in
    Network.start network;
    let finish () =
      let rib, adj =
        Net.Asn.Map.fold
          (fun asn r (loc, a) ->
            if owned (Net.Asn.to_int asn) then
              (loc + Bgp.Router.loc_size r, a + Bgp.Router.adj_in_size r)
            else (loc, a))
          (Network.routers network) (0, 0)
      in
      {
        o_phases = List.rev !journal;
        o_metrics =
          strip_cmd_series
            (Engine.Metrics.snapshot (Engine.Sim.metrics sim) ~at:(Engine.Sim.now sim));
        o_collector_last = Bgp.Collector.last_updates collector;
        o_collector_total = Bgp.Collector.event_count collector;
        o_rib = rib;
        o_adj = adj;
        o_now = Engine.Sim.now sim;
      }
    in
    ( {
        Engine.Shard.sim;
        real_executed;
        flush;
        inject;
        on_quiescent;
      },
      finish )
  in
  let outs, stats = Engine.Shard.run ~shards ~lookahead ?clock ?budget make in
  (* --- Merge ------------------------------------------------------------- *)
  let end_time = Array.fold_left (fun acc o -> Engine.Time.max acc o.o_now) Engine.Time.zero outs in
  let metrics =
    Engine.Metrics.merge ~resolve:merge_resolve
      (Array.to_list (Array.map (fun o -> o.o_metrics) outs))
  in
  let completed_phases =
    Array.fold_left (fun acc o -> Stdlib.min acc (List.length o.o_phases)) n_phases outs
  in
  let phase_specs = Array.of_list phases in
  let phases_merged =
    List.init completed_phases (fun k ->
        let logs = Array.to_list (Array.map (fun o -> List.nth o.o_phases k) outs) in
        let started_at = (List.hd logs).l_start in
        let ended_at = (List.hd logs).l_end in
        let host_seconds = (List.hd logs).l_host in
        let collector_updates = List.fold_left (fun acc l -> acc + l.l_collector) 0 logs in
        let measurement =
          match phase_specs.(k).measured with
          | None -> None
          | Some prefix ->
            let changes = List.fold_left (fun acc l -> acc + l.l_changes) 0 logs in
            let last_change =
              List.fold_left
                (fun acc l ->
                  match (acc, l.l_last_change) with
                  | None, x | x, None -> x
                  | Some a, Some b -> Some (Engine.Time.max a b))
                None logs
            in
            Some
              {
                Convergence.prefix;
                event_time = started_at;
                settled_at = ended_at;
                last_change;
                convergence =
                  Option.map (fun c -> Engine.Time.diff c started_at) last_change;
                changes;
              }
        in
        { started_at; ended_at; collector_updates; measurement; host_seconds })
  in
  {
    shards;
    partition_sizes = Topology.Partition.sizes partition;
    cut_links = Topology.Partition.cut_links partition spec;
    phases = phases_merged;
    metrics;
    collector_last =
      Array.fold_left (fun acc o -> if acc = [] then o.o_collector_last else acc) [] outs;
    collector_total = Array.fold_left (fun acc o -> acc + o.o_collector_total) 0 outs;
    rib_routes = Array.fold_left (fun acc o -> acc + o.o_rib) 0 outs;
    adj_in_routes = Array.fold_left (fun acc o -> acc + o.o_adj) 0 outs;
    end_time;
    settled = stats.Engine.Shard.settled;
    stats;
  }

(* Deterministic projection of a result — everything except host-clock
   phase and stall times; two runs of the same experiment at different shard
   counts must agree on this. *)
type signature = {
  g_phases : (Engine.Time.t * Engine.Time.t * int * Convergence.measurement option) list;
  g_metrics : Engine.Metrics.snapshot;
  g_collector_last : (Net.Ipv4.prefix * Engine.Time.t) list;
  g_collector_total : int;
  g_rib : int;
  g_adj : int;
  g_end : Engine.Time.t;
  g_settled : bool;
}

let signature r =
  {
    g_phases =
      List.map
        (fun p -> (p.started_at, p.ended_at, p.collector_updates, p.measurement))
        r.phases;
    g_metrics = r.metrics;
    g_collector_last = r.collector_last;
    g_collector_total = r.collector_total;
    g_rib = r.rib_routes;
    g_adj = r.adj_in_routes;
    g_end = r.end_time;
    g_settled = r.settled;
  }

let equal_result a b = Stdlib.compare (signature a) (signature b) = 0
