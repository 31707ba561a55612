(** Sharded single-run execution: one emulation partitioned across N
    OCaml domains, bit-identical to the same run at [shards = 1].

    Every shard replicates the full {!Network} construction from the
    same (spec, config, seed) — so all per-component RNG streams are
    split identically — but executes only the fabric nodes it owns per
    the deterministic {!Topology.Partition}.  Cross-shard deliveries are
    buffered per epoch and exchanged at {!Engine.Shard}'s barrier; every
    sim runs in {!Engine.Sim.Canonical} order with partition-independent
    event keys, which makes the merged schedule independent of the
    partitioning.  See DESIGN.md "Sharded execution".

    Limits: lossy links are refused (their drop draw would consume a
    shared RNG stream in partition-dependent order) and causal tracing
    is forced off (span ids are execution-order-local to a shard). *)

type command =
  | Originate of Net.Asn.t * Net.Ipv4.prefix
  | Withdraw of Net.Asn.t * Net.Ipv4.prefix
  | Fail_link of Net.Asn.t * Net.Asn.t
  | Recover_link of Net.Asn.t * Net.Asn.t

type phase = { commands : command list; measured : Net.Ipv4.prefix option }
(** One experiment phase: commands applied atomically at a single driver
    instant once the previous phase settled, optionally measuring the
    convergence of one prefix. *)

type phase_outcome = {
  started_at : Engine.Time.t;  (** the instant the phase's commands executed *)
  ended_at : Engine.Time.t;  (** global quiescence closing the phase *)
  collector_updates : int;  (** collector events during the phase *)
  measurement : Convergence.measurement option;
  host_seconds : float;
      (** host time from the phase's commands to its quiescence, read with
          [clock] on shard 0 (0 without [clock]) *)
}

type result = {
  shards : int;
  partition_sizes : int array;
  cut_links : int;
  phases : phase_outcome list;
  metrics : Engine.Metrics.snapshot;  (** merged across shards *)
  collector_last : (Net.Ipv4.prefix * Engine.Time.t) list;
  collector_total : int;
  rib_routes : int;  (** Loc-RIB routes summed over owned routers *)
  adj_in_routes : int;
  end_time : Engine.Time.t;
  settled : bool;  (** [false] when the budget stopped the run early *)
  stats : Engine.Shard.stats;
}

val run :
  ?shards:int ->
  ?partition_seed:int ->
  ?budget:int ->
  ?clock:(unit -> float) ->
  config:Config.t ->
  seed:int ->
  phases:phase list ->
  Topology.Spec.t ->
  result
(** Build and execute the sharded run.  [budget] bounds the total
    real-event count across all shards (checked at epoch boundaries;
    deterministic overshoot of at most one epoch).  [clock] feeds
    barrier-stall accounting and [host_seconds] only.
    @raise Invalid_argument on [shards < 1], a zero-delay link, or a
    lossy link. *)

val equal_result : result -> result -> bool
(** Deterministic-field equality: phases, merged metrics, collector
    stream, RIB sums, end time and settledness — everything except
    host-clock phase times and shard stats.  The shards=N-vs-1 differential check. *)
