(* Net.Dataplane + Framework.Fwd_verify: the allocation-free fast path
   must classify every (src, dst) pair exactly like the live emulation.
   Unit tests drive hand-built snapshots through every fate; the
   differential tests hold [Fwd_verify] (snapshot walks) and
   [Monitor.walk] (live state) to the same answer across legacy, SDN,
   fallback and failure states. *)

let asn = Topology.Artificial.asn

let cfg = Framework.Config.fast_test

let addr_bits o1 o2 o3 o4 = Net.Ipv4.addr_to_bits (Net.Ipv4.addr_of_octets o1 o2 o3 o4)

let prefix s = Option.get (Net.Ipv4.prefix_of_string s)

let fate = Alcotest.testable Net.Dataplane.pp_fate ( = )

let snapshot asns = Net.Dataplane.create (Net.Dataplane.layout asns)

(* A node whose FIB holds [(prefix, next index)] entries. *)
let set_fib dp i entries =
  let fib = Net.Fib.create () in
  List.iter (fun (p, next) -> Net.Fib.insert fib (prefix p) next) entries;
  Net.Dataplane.set_table dp i (Net.Dataplane.fib_table fib Fun.id)

(* A hand-built 3-node chain 0 -> 1 -> 2 with 10.0.2.0/24 local at node 2. *)
let chain () =
  let dp = snapshot [| 100; 101; 102 |] in
  set_fib dp 0 [ ("10.0.2.0/24", 1) ];
  set_fib dp 1 [ ("10.0.2.0/24", 2) ];
  Net.Dataplane.add_local dp 2 (prefix "10.0.2.0/24");
  Net.Dataplane.set_link dp 0 1 true;
  Net.Dataplane.set_link dp 1 2 true;
  dp

let test_unit_delivered () =
  let dp = chain () in
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:64 in
  Alcotest.check fate "delivered" Net.Dataplane.Delivered (Net.Dataplane.result_fate r);
  Alcotest.(check int) "two hops" 2 (Net.Dataplane.result_hops r);
  Alcotest.(check (array int)) "path 0-1-2" [| 0; 1; 2 |] (Net.Dataplane.last_path dp);
  (* local delivery at the source itself: zero hops, TTL never consulted *)
  let r = Net.Dataplane.forward dp ~src:2 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:0 in
  Alcotest.check fate "local at ttl=0" Net.Dataplane.Delivered (Net.Dataplane.result_fate r);
  Alcotest.(check int) "zero hops" 0 (Net.Dataplane.result_hops r)

let test_unit_blackhole () =
  let dp = chain () in
  (* no route for this destination *)
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 9 9 9 9) ~ttl:64 in
  Alcotest.check fate "no route" Net.Dataplane.Blackholed (Net.Dataplane.result_fate r);
  (* a down link black-holes even with a matching route *)
  Net.Dataplane.set_link dp 1 2 false;
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:64 in
  Alcotest.check fate "down link" Net.Dataplane.Blackholed (Net.Dataplane.result_fate r);
  Alcotest.(check (array int)) "stops at 1" [| 0; 1 |] (Net.Dataplane.last_path dp)

let test_unit_loop_and_ttl () =
  (* 0 and 1 point at each other: revisit = loop whatever the TTL *)
  let dp = snapshot [| 200; 201 |] in
  set_fib dp 0 [ ("10.9.0.0/16", 1) ];
  set_fib dp 1 [ ("10.9.0.0/16", 0) ];
  Net.Dataplane.set_link dp 0 1 true;
  Net.Dataplane.set_link dp 1 0 true;
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 9 1 1) ~ttl:64 in
  Alcotest.check fate "loop" Net.Dataplane.Looped (Net.Dataplane.result_fate r);
  Alcotest.(check (array int)) "revisits 0" [| 0; 1; 0 |] (Net.Dataplane.last_path dp);
  (* TTL death binds first when it is tighter than the cycle *)
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 9 1 1) ~ttl:1 in
  Alcotest.check fate "ttl death" Net.Dataplane.Ttl_expired (Net.Dataplane.result_fate r)

let test_unit_rules_first_match () =
  (* SDN rule tables are first-match in table order, not LPM *)
  let dp = snapshot [| 300; 301; 302 |] in
  let wide = prefix "10.0.0.0/8" and narrow = prefix "10.0.2.0/24" in
  (* the wide rule sits first, so it wins even against the narrow match *)
  let table = Net.Dataplane.rule_table [ (wide, 1); (narrow, 2) ] in
  Alcotest.(check bool) "kept as a scan" false (Net.Dataplane.is_flat table);
  Net.Dataplane.set_table dp 0 table;
  Net.Dataplane.add_local dp 1 (prefix "10.0.0.0/8");
  Net.Dataplane.add_local dp 2 (prefix "10.0.2.0/24");
  Net.Dataplane.set_link dp 0 1 true;
  Net.Dataplane.set_link dp 0 2 true;
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 9) ~ttl:4 in
  Alcotest.check fate "delivered" Net.Dataplane.Delivered (Net.Dataplane.result_fate r);
  Alcotest.(check (array int)) "took the first rule" [| 0; 1 |] (Net.Dataplane.last_path dp);
  (* a Drop action (code -1) black-holes *)
  Net.Dataplane.set_table dp 0 (Net.Dataplane.rule_table [ (wide, Net.Dataplane.drop) ]);
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 9) ~ttl:4 in
  Alcotest.check fate "drop rule" Net.Dataplane.Blackholed (Net.Dataplane.result_fate r)

let test_decr_ttl_edges () =
  let a = Net.Ipv4.addr_of_octets 10 0 0 1 and b = Net.Ipv4.addr_of_octets 10 0 0 2 in
  let p1 = Net.Packet.echo ~ttl:1 ~src:a ~dst:b 1 in
  (match Net.Packet.decr_ttl p1 with
  | Some p -> Alcotest.(check int) "1 -> 0" 0 p.Net.Packet.ttl
  | None -> Alcotest.fail "ttl=1 must still forward once");
  let p0 = Net.Packet.echo ~ttl:0 ~src:a ~dst:b 1 in
  Alcotest.(check bool) "0 dies" true (Net.Packet.decr_ttl p0 = None);
  (* the snapshot walk agrees: ttl=1 crosses exactly one link *)
  let dp = chain () in
  let r = Net.Dataplane.forward dp ~src:1 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:1 in
  Alcotest.check fate "one link reaches 2" Net.Dataplane.Delivered
    (Net.Dataplane.result_fate r);
  let r = Net.Dataplane.forward dp ~src:0 ~dst_bits:(addr_bits 10 0 2 7) ~ttl:1 in
  Alcotest.check fate "two links need ttl 2" Net.Dataplane.Ttl_expired
    (Net.Dataplane.result_fate r)

(* --- Compiled tables against the simple paths ----------------------------- *)

let gen_bits =
  QCheck.Gen.(map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xffff) (int_bound 0xffff))

let prefix_of_bits bits len = Net.Ipv4.prefix (Net.Ipv4.addr_of_bits bits) len

let net_bits p = Net.Ipv4.addr_to_bits (Net.Ipv4.prefix_network p)

(* Addresses at and around each prefix's edges, plus one inside it: the
   cases where a wrong mask or a wrong length order shows. *)
let probes_for prefixes extra =
  List.concat_map
    (fun (p, inside) ->
      let lo = net_bits p and span = 1 lsl (32 - Net.Ipv4.prefix_len p) in
      let hi = lo + span - 1 in
      List.filter
        (fun b -> b >= 0 && b <= 0xffff_ffff)
        [ lo; hi; lo - 1; hi + 1; lo + (inside mod span) ])
    prefixes
  @ extra

(* Entry sets with lengths 0-32: the default route, host routes, a chain
   of nested prefixes of one network, networks at or above 128.0.0.0,
   and random prefixes. *)
let gen_fib_case =
  QCheck.Gen.(
    let* default = bool in
    let* base = gen_bits in
    let* nested = list_size (int_range 0 8) (int_range 0 32) in
    let* hosts = list_size (int_range 0 4) gen_bits in
    let* high = list_size (int_range 0 4) (pair gen_bits (int_range 1 32)) in
    let* random = list_size (int_range 0 24) (pair gen_bits (int_range 0 32)) in
    let prefixes =
      (if default then [ prefix "0.0.0.0/0" ] else [])
      @ List.map (prefix_of_bits base) nested
      @ List.map (fun b -> prefix_of_bits b 32) hosts
      @ List.map (fun (b, len) -> prefix_of_bits (b lor 0x8000_0000) len) high
      @ List.map (fun (b, len) -> prefix_of_bits b len) random
    in
    let* insides = list_repeat (List.length prefixes) gen_bits in
    let* extra = list_size (int_range 0 16) gen_bits in
    return (prefixes, probes_for (List.combine prefixes insides) extra))

(* Values map to action codes with every fifth dropped, so a drop entry
   must still shadow shorter prefixes. *)
let code v = if v mod 5 = 0 then Net.Dataplane.drop else v

let prop_fib_table_matches_trie =
  QCheck.Test.make ~name:"flat table = Fib.lookup_value on its trie" ~count:400
    (QCheck.make
       ~print:(fun (ps, _) -> Fmt.str "%a" Fmt.(list ~sep:sp Net.Ipv4.pp_prefix) ps)
       gen_fib_case)
    (fun (prefixes, probes) ->
      let fib = Net.Fib.create () in
      List.iteri (fun i p -> Net.Fib.insert fib p (i + 1)) prefixes;
      let table = Net.Dataplane.fib_table fib code in
      Net.Dataplane.is_flat table
      && List.for_all
           (fun bits ->
             let want =
               match Net.Fib.lookup_value fib (Net.Ipv4.addr_of_bits bits) with
               | Some v -> code v
               | None -> Net.Dataplane.drop
             in
             Net.Dataplane.lookup table bits = want)
           probes)

let rec lengths_non_increasing = function
  | (p, _) :: ((q, _) :: _ as rest) ->
    Net.Ipv4.prefix_len p >= Net.Ipv4.prefix_len q && lengths_non_increasing rest
  | _ -> true

(* Rule lists over a small pool of overlapping prefixes, so one prefix
   often appears at two priorities.  Monotone cases are sorted by length,
   longest first (priority = length, as the framework installs); the
   others lead with a short rule before a longer one, the fallback. *)
let gen_rule_case =
  QCheck.Gen.(
    let* base = gen_bits in
    let* pool =
      list_size (int_range 2 8)
        (let* nested = bool in
         let* bits = gen_bits in
         let* len = int_range 0 32 in
         return (prefix_of_bits (if nested then base else bits) len))
    in
    let* rules = list_size (int_range 0 20) (pair (oneofl pool) (int_range (-1) 9)) in
    let* monotone = bool in
    let* short = int_range 0 16 and* long = int_range 17 32 in
    let rules =
      if monotone then
        List.stable_sort
          (fun (p, _) (q, _) -> Int.compare (Net.Ipv4.prefix_len q) (Net.Ipv4.prefix_len p))
          rules
      else (prefix_of_bits base short, 1) :: (prefix_of_bits base long, 2) :: rules
    in
    let* insides = list_repeat (List.length pool) gen_bits in
    let* extra = list_size (int_range 0 16) gen_bits in
    return (rules, probes_for (List.combine pool insides) extra))

let prop_rule_table_matches_scan =
  QCheck.Test.make ~name:"compiled rule table = first-match scan" ~count:400
    (QCheck.make
       ~print:(fun (rs, _) ->
         Fmt.str "%a" Fmt.(list ~sep:sp (pair ~sep:(any "->") Net.Ipv4.pp_prefix int)) rs)
       gen_rule_case)
    (fun (rules, probes) ->
      let table = Net.Dataplane.rule_table rules in
      Net.Dataplane.is_flat table = lengths_non_increasing rules
      && List.for_all
           (fun bits ->
             let addr = Net.Ipv4.addr_of_bits bits in
             let want =
               match List.find_opt (fun (p, _) -> Net.Ipv4.mem addr p) rules with
               | Some (_, act) -> act
               | None -> Net.Dataplane.drop
             in
             Net.Dataplane.lookup table bits = want)
           probes)

(* --- Differential: snapshot vs live walker over real networks ----------- *)

let build ?(spec = Topology.Artificial.clique 4) () =
  let net = Framework.Network.create ~config:cfg ~seed:9 spec in
  Framework.Network.start net;
  ignore (Framework.Network.settle net);
  net

let originate net a =
  let plan = Framework.Network.plan net in
  Framework.Network.originate net a (plan.Framework.Addressing.origin_prefix a);
  ignore (Framework.Network.settle net)

let check_agreement name net =
  let disagreements = Framework.Fwd_verify.differential net in
  if disagreements <> [] then
    Alcotest.failf "%s: %d disagreement(s), first: %a" name
      (List.length disagreements)
      Framework.Fwd_verify.pp_disagreement (List.hd disagreements)

let test_differential_clique () =
  let net = build () in
  originate net (asn 0);
  originate net (asn 2);
  check_agreement "settled clique" net;
  let report = Framework.Fwd_verify.verify ~dsts:[ asn 0; asn 2 ] net in
  Alcotest.(check int) "all pairs delivered" report.Framework.Fwd_verify.pairs
    report.Framework.Fwd_verify.delivered;
  Alcotest.(check (list pass)) "no issues" [] report.Framework.Fwd_verify.issues

let test_differential_blackhole () =
  let net = build ~spec:(Topology.Artificial.line 3) () in
  originate net (asn 0);
  (* the only path dies: everything beyond the cut black-holes *)
  Framework.Network.fail_link net (asn 0) (asn 1);
  check_agreement "cut line, pre-convergence" net;
  ignore (Framework.Network.settle net);
  check_agreement "cut line, post-convergence" net;
  let report = Framework.Fwd_verify.verify ~dsts:[ asn 0 ] net in
  Alcotest.(check int) "both far nodes blackholed" 2
    report.Framework.Fwd_verify.blackholed;
  Alcotest.(check int) "none looped" 0 report.Framework.Fwd_verify.looped

let test_differential_sdn_members () =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 5) [ asn 3; asn 4 ] in
  let net = build ~spec () in
  originate net (asn 0);
  originate net (asn 1);
  check_agreement "clique with SDN members" net;
  let report = Framework.Fwd_verify.verify ~dsts:[ asn 0; asn 1 ] net in
  Alcotest.(check int) "all delivered through flow tables"
    report.Framework.Fwd_verify.pairs report.Framework.Fwd_verify.delivered

let test_differential_sdn_fallback () =
  (* A member partitioned from the controller degrades onto its legacy
     fallback route; the snapshot must mirror the fallback flow table.
     Liveness timers tick forever, so advance wall-clock windows with
     [run_until] rather than waiting for quiescence. *)
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 5) [ asn 3; asn 4 ] in
  let config = Framework.Config.failure_test in
  let net = Framework.Network.create ~config ~seed:9 spec in
  Framework.Network.start net;
  let run_for s =
    Framework.Network.run_until net
      (Engine.Time.add (Framework.Network.now net) (Engine.Time.sec s))
  in
  run_for 10;
  let plan = Framework.Network.plan net in
  Framework.Network.originate net (asn 0) (plan.Framework.Addressing.origin_prefix (asn 0));
  run_for 10;
  check_agreement "settled hybrid clique" net;
  Framework.Network.fail_ctrl_link net (asn 3);
  run_for 10;
  check_agreement "member in legacy fallback" net;
  Framework.Network.recover_ctrl_link net (asn 3);
  run_for 10;
  check_agreement "member back under the controller" net

let test_differential_withdrawal_and_recovery () =
  let net = build () in
  let plan = Framework.Network.plan net in
  let p = plan.Framework.Addressing.origin_prefix (asn 1) in
  originate net (asn 1);
  Framework.Network.withdraw net (asn 1) p;
  ignore (Framework.Network.settle net);
  check_agreement "after withdrawal" net;
  let report = Framework.Fwd_verify.verify ~dsts:[ asn 1 ] net in
  Alcotest.(check int) "withdrawn prefix unreachable" 3
    report.Framework.Fwd_verify.blackholed

(* --- Snapshots through the compile cache ---------------------------------- *)

let origin_prefix net a = (Framework.Network.plan net).Framework.Addressing.origin_prefix a

let hybrid_clique () =
  let spec = Topology.Spec.with_sdn (Topology.Artificial.clique 5) [ asn 3; asn 4 ] in
  let net = build ~spec () in
  originate net (asn 0);
  originate net (asn 1);
  net

(* Every (src, dst) fate of a snapshot, spec order. *)
let fates net dp =
  let plan = Framework.Network.plan net in
  let asns = Topology.Spec.asns (Framework.Network.spec net) in
  List.concat_map
    (fun src ->
      let si = Net.Dataplane.index_of dp (Net.Asn.to_int src) in
      List.map
        (fun dst ->
          let dst_bits = Net.Ipv4.addr_to_bits (plan.Framework.Addressing.host_addr dst) in
          Net.Dataplane.result_fate (Net.Dataplane.forward dp ~src:si ~dst_bits ~ttl:64))
        asns)
    asns

let test_old_snapshot_stays_frozen () =
  let net = hybrid_clique () in
  let old = Framework.Network.dataplane_snapshot net in
  let old_fates = fates net old in
  Framework.Network.withdraw net (asn 1) (origin_prefix net (asn 1));
  ignore (Framework.Network.settle net);
  Alcotest.(check (list fate)) "old snapshot after the withdrawal" old_fates (fates net old);
  let newer = Framework.Network.dataplane_snapshot net in
  Alcotest.(check bool) "the newer snapshot sees the withdrawal" false
    (fates net newer = old_fates);
  Alcotest.(check (list fate)) "old snapshot after a newer one" old_fates (fates net old)

(* Per-hop differential: in a fresh snapshot, every AS's first hop
   toward every destination (a one-hop walk) is the live
   [Network.forwarding_at] decision over a usable link.  Stricter than
   comparing fates, which a stale entry can leave unchanged. *)
let check_first_hops name net =
  let dp = Framework.Network.dataplane_snapshot net in
  let plan = Framework.Network.plan net in
  let asns = Topology.Spec.asns (Framework.Network.spec net) in
  let show = function `Local -> "local" | `Drop -> "drop" | `Next n -> string_of_int n in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          let addr = plan.Framework.Addressing.host_addr dst in
          let r =
            Net.Dataplane.forward dp
              ~src:(Net.Dataplane.index_of dp (Net.Asn.to_int src))
              ~dst_bits:(Net.Ipv4.addr_to_bits addr) ~ttl:1
          in
          let got =
            match (Net.Dataplane.result_hops r, Net.Dataplane.result_fate r) with
            | 0, Net.Dataplane.Delivered -> `Local
            | 0, _ -> `Drop
            | _ -> `Next (Net.Dataplane.asn_at dp (Net.Dataplane.last_path dp).(1))
          in
          let want =
            match Framework.Network.forwarding_at net src addr with
            | Framework.Network.Local -> `Local
            | Framework.Network.Next node
              when List.exists (fun a -> Net.Asn.to_int a = node) asns
                   && Framework.Network.link_up net src (Net.Asn.of_int node) ->
              `Next node
            | Framework.Network.Next _ | Framework.Network.No_route -> `Drop
          in
          if got <> want then
            Alcotest.failf "%s: %a toward %a: snapshot %s, live %s" name Net.Asn.pp src
              Net.Asn.pp dst (show got) (show want))
        asns)
    asns

(* Each writer of a FIB or flow table, one after another on one network.
   Control-plane steps run one event at a time with a snapshot after
   each, so a write the cache misses cannot hide behind a later write to
   the same table; every snapshot taken through the cache must agree
   with the live state. *)
let test_cache_follows_every_writer () =
  let net = hybrid_clique () in
  check_agreement "settled" net;
  let step name net f =
    f ();
    let sim = Framework.Network.sim net in
    while Engine.Sim.step sim do
      check_first_hops name net
    done;
    check_first_hops name net;
    check_agreement name net
  in
  step "withdrawal" net (fun () ->
      Framework.Network.withdraw net (asn 1) (origin_prefix net (asn 1)));
  step "link failure" net (fun () -> Framework.Network.fail_link net (asn 0) (asn 3));
  step "link recovery" net (fun () -> Framework.Network.recover_link net (asn 0) (asn 3));
  step "router crash" net (fun () -> Framework.Network.crash_node net (asn 2));
  step "router restart" net (fun () -> Framework.Network.restart_node net (asn 2));
  step "switch crash" net (fun () -> Framework.Network.crash_node net (asn 4));
  step "switch restart" net (fun () -> Framework.Network.restart_node net (asn 4));
  step "same-match flow rewrite" net (fun () ->
      let table = Sdn.Switch.table (Option.get (Framework.Network.switch net (asn 3))) in
      let r = Option.get (Sdn.Flow_table.find table ~match_prefix:(origin_prefix net (asn 0))) in
      let before = Sdn.Flow_table.size table in
      Sdn.Flow_table.add table { r with Sdn.Flow.action = Sdn.Flow.Drop };
      Alcotest.(check int) "replaced in place" before (Sdn.Flow_table.size table));
  let restored = Framework.Network.restore (Framework.Network.checkpoint net) in
  check_agreement "restored" restored;
  step "withdrawal after restore" restored (fun () ->
      Framework.Network.withdraw restored (asn 0) (origin_prefix restored (asn 0)))

(* A snapshot with no control-plane change since the previous one
   recompiles nothing: it costs its local sets, link liveness and walk
   scratch only. *)
let test_unchanged_snapshot_reuses_tables () =
  let spec =
    Topology.Caida.generate ~tier1:2 ~tier2:6 ~stubs:22 (Engine.Rng.create 61)
  in
  let degree a = List.length (Topology.Spec.neighbors spec a) in
  let top =
    List.stable_sort (fun a b -> Int.compare (degree b) (degree a)) (Topology.Spec.asns spec)
  in
  let spec = Topology.Spec.with_sdn spec (List.filteri (fun i _ -> i < 4) top) in
  let net = build ~spec () in
  List.iter
    (fun a -> Framework.Network.originate net a (origin_prefix net a))
    (Topology.Spec.asns spec);
  ignore (Framework.Network.settle net);
  let words () =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Framework.Network.dataplane_snapshot net));
    Gc.minor_words () -. w0
  in
  let first = words () in
  let second = words () in
  Alcotest.(check bool)
    (Fmt.str "second snapshot %.0f minor words, first %.0f" second first)
    true
    (second < first /. 10.0);
  check_agreement "reused tables" net

(* --- Traffic generation -------------------------------------------------- *)

let test_trafficgen_deterministic () =
  let net = build () in
  originate net (asn 0);
  originate net (asn 2);
  let burst_of seed =
    let tg =
      Framework.Trafficgen.create ~seed ~dsts:[ asn 0; asn 2 ] net
        (Framework.Trafficgen.Sampled_pairs 64)
    in
    Framework.Trafficgen.burst tg
  in
  let a = burst_of 5 and b = burst_of 5 and c = burst_of 6 in
  Alcotest.(check bool) "same seed, same census" true (a = b);
  Alcotest.(check int) "64 injected" 64 a.Framework.Trafficgen.injected;
  Alcotest.(check int) "all delivered" 64 a.Framework.Trafficgen.delivered;
  Alcotest.(check int) "other seed still clean" 64 c.Framework.Trafficgen.delivered

let test_trafficgen_counters () =
  let net = build ~spec:(Topology.Artificial.line 3) () in
  originate net (asn 0);
  let tg =
    Framework.Trafficgen.create ~dsts:[ asn 0 ] net (Framework.Trafficgen.Per_prefix 3)
  in
  ignore (Framework.Trafficgen.burst tg);
  let m = Engine.Sim.metrics (Framework.Network.sim net) in
  let snap = Engine.Metrics.snapshot m ~at:(Framework.Network.now net) in
  Alcotest.(check (option (float 1e-9))) "probes counted" (Some 3.0)
    (Engine.Metrics.value snap "dataplane_probes_total");
  Alcotest.(check (option (float 1e-9))) "all delivered" (Some 3.0)
    (Engine.Metrics.value snap "dataplane_probes_delivered_total");
  (* no drops yet: the labelled drop series must not exist *)
  Alcotest.(check (option (float 1e-9))) "no drop series" None
    (Engine.Metrics.value snap ~labels:[ ("fate", "blackhole") ]
       "dataplane_probes_dropped_total");
  (* cut the only path: drops appear under their fate label *)
  Framework.Network.fail_link net (asn 0) (asn 1);
  let e = Framework.Trafficgen.burst tg in
  Alcotest.(check int) "all lost" 3 (Framework.Trafficgen.epoch_lost e);
  let snap = Engine.Metrics.snapshot m ~at:(Framework.Network.now net) in
  Alcotest.(check (option (float 1e-9))) "blackholes labelled" (Some 3.0)
    (Engine.Metrics.value snap ~labels:[ ("fate", "blackhole") ]
       "dataplane_probes_dropped_total")

let test_trafficgen_fate_agreement () =
  (* Every probe fate must match the verifier's census on the same
     frozen state: burst totals are just an aggregated verify. *)
  let net = build ~spec:(Topology.Artificial.line 4) () in
  originate net (asn 3);
  Framework.Network.fail_link net (asn 2) (asn 3);
  ignore (Framework.Network.settle net);
  let tg =
    Framework.Trafficgen.create ~dsts:[ asn 3 ] net Framework.Trafficgen.All_pairs
  in
  let e = Framework.Trafficgen.burst tg in
  let r = Framework.Fwd_verify.verify ~dsts:[ asn 3 ] net in
  Alcotest.(check int) "injected = pairs" r.Framework.Fwd_verify.pairs
    e.Framework.Trafficgen.injected;
  Alcotest.(check int) "delivered agree" r.Framework.Fwd_verify.delivered
    e.Framework.Trafficgen.delivered;
  Alcotest.(check int) "blackholes agree" r.Framework.Fwd_verify.blackholed
    e.Framework.Trafficgen.blackholed;
  Alcotest.(check int) "loops agree" r.Framework.Fwd_verify.looped
    e.Framework.Trafficgen.looped

let test_loss_run_recovers () =
  let r =
    Framework.Experiments.loss_run ~per_prefix:2 ~interval_ms:100 ~n:5 ~sdn:2 ~seed:3
      ~config:cfg ()
  in
  Alcotest.(check bool) "loss observed" true (r.Framework.Experiments.lost > 0);
  Alcotest.(check bool) "loss cleared" true
    (r.Framework.Experiments.loss_seconds < r.Framework.Experiments.converge_seconds +. 1.0);
  Alcotest.(check int) "verifier clean after recovery" 0
    r.Framework.Experiments.residual_issues

(* The fast path allocates nothing per probe: on a settled fail-over
   network, 100k forwards at the stub cost fewer minor words than probes. *)
let test_forward_allocation_free () =
  let spec = Topology.Artificial.failover_backup_chain ~clique_size:8 ~chain_len:2 () in
  let exp = Framework.Experiment.create ~config:cfg ~seed:73 spec in
  let stub = Topology.Artificial.stub_asn spec in
  let prefix = Framework.Experiment.default_prefix exp stub in
  ignore
    (Framework.Experiment.measure exp ~prefix (fun () ->
         ignore (Framework.Experiment.announce exp stub)));
  let network = Framework.Experiment.network exp in
  let dp = Framework.Network.dataplane_snapshot network in
  let plan = Framework.Network.plan network in
  let dst_bits = Net.Ipv4.addr_to_bits (plan.Framework.Addressing.host_addr stub) in
  let srcs =
    Array.of_list
      (List.map (fun a -> Net.Dataplane.index_of dp (Net.Asn.to_int a)) (Topology.Spec.asns spec))
  in
  Array.iter
    (fun src ->
      Alcotest.check fate "settled network delivers" Net.Dataplane.Delivered
        (Net.Dataplane.result_fate (Net.Dataplane.forward dp ~src ~dst_bits ~ttl:64)))
    srcs;
  let probes = 100_000 in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to probes - 1 do
    sink := !sink + Net.Dataplane.forward dp ~src:srcs.(i mod Array.length srcs) ~dst_bits ~ttl:64
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check bool)
    (Fmt.str "%.0f minor words for %d probes" words probes)
    true
    (words < float_of_int probes)

let suite =
  [
    Alcotest.test_case "unit: delivered + local at source" `Quick test_unit_delivered;
    Alcotest.test_case "unit: blackhole (no route, down link)" `Quick test_unit_blackhole;
    Alcotest.test_case "unit: loop vs ttl death" `Quick test_unit_loop_and_ttl;
    Alcotest.test_case "unit: rule tables are first-match" `Quick test_unit_rules_first_match;
    Alcotest.test_case "packet decr_ttl edges" `Quick test_decr_ttl_edges;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |]) prop_fib_table_matches_trie;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |]) prop_rule_table_matches_scan;
    Alcotest.test_case "differential: settled clique" `Quick test_differential_clique;
    Alcotest.test_case "differential: blackholes on a cut line" `Quick
      test_differential_blackhole;
    Alcotest.test_case "differential: SDN members" `Quick test_differential_sdn_members;
    Alcotest.test_case "differential: SDN legacy fallback" `Quick
      test_differential_sdn_fallback;
    Alcotest.test_case "differential: withdrawal" `Quick
      test_differential_withdrawal_and_recovery;
    Alcotest.test_case "snapshot cache: old snapshots stay frozen" `Quick
      test_old_snapshot_stays_frozen;
    Alcotest.test_case "snapshot cache: follows every writer" `Quick
      test_cache_follows_every_writer;
    Alcotest.test_case "snapshot cache: unchanged state reuses tables" `Quick
      test_unchanged_snapshot_reuses_tables;
    Alcotest.test_case "trafficgen: seeded determinism" `Quick test_trafficgen_deterministic;
    Alcotest.test_case "trafficgen: labelled drop counters" `Quick test_trafficgen_counters;
    Alcotest.test_case "trafficgen: fate census = verifier census" `Quick
      test_trafficgen_fate_agreement;
    Alcotest.test_case "loss_run: loss clears by convergence" `Quick test_loss_run_recovers;
    Alcotest.test_case "fast path: no allocation per probe" `Quick test_forward_allocation_free;
  ]
