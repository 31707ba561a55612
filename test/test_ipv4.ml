(* Net.Ipv4: addresses, prefixes, containment, allocation. *)

open Net

let addr = Alcotest.testable Ipv4.pp_addr Ipv4.equal_addr

let prefix = Alcotest.testable Ipv4.pp_prefix Ipv4.equal_prefix

let a s = Option.get (Ipv4.addr_of_string s)

let p s = Option.get (Ipv4.prefix_of_string s)

let test_addr_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ipv4.addr_to_string (a s)))
    [ "0.0.0.0"; "10.0.0.1"; "192.168.255.1"; "255.255.255.255"; "128.0.0.1" ]

let test_addr_parse_errors () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Ipv4.addr_of_string s = None))
    [ ""; "10.0.0"; "10.0.0.256"; "10.0.0.-1"; "a.b.c.d"; "10.0.0.1.2" ]

let test_prefix_normalization () =
  Alcotest.check prefix "host bits cleared" (p "10.1.0.0/16")
    (Ipv4.prefix (a "10.1.2.3") 16);
  Alcotest.(check string) "/0 renders" "0.0.0.0/0" (Ipv4.prefix_to_string (p "1.2.3.4/0"))

let test_prefix_parse () =
  Alcotest.check prefix "bare addr is /32" (Ipv4.prefix (a "1.2.3.4") 32) (p "1.2.3.4");
  Alcotest.(check bool) "bad length" true (Ipv4.prefix_of_string "10.0.0.0/33" = None)

let test_mem () =
  Alcotest.(check bool) "inside" true (Ipv4.mem (a "10.1.2.3") (p "10.1.0.0/16"));
  Alcotest.(check bool) "outside" false (Ipv4.mem (a "10.2.0.1") (p "10.1.0.0/16"));
  Alcotest.(check bool) "/0 contains all" true (Ipv4.mem (a "200.1.1.1") (p "0.0.0.0/0"));
  Alcotest.(check bool) "/32 self" true (Ipv4.mem (a "9.9.9.9") (p "9.9.9.9/32"))

let test_subsumes () =
  Alcotest.(check bool) "outer/inner" true
    (Ipv4.subsumes ~outer:(p "10.0.0.0/8") ~inner:(p "10.5.0.0/16"));
  Alcotest.(check bool) "not subsumed" false
    (Ipv4.subsumes ~outer:(p "10.5.0.0/16") ~inner:(p "10.0.0.0/8"));
  Alcotest.(check bool) "equal subsumes" true
    (Ipv4.subsumes ~outer:(p "10.0.0.0/8") ~inner:(p "10.0.0.0/8"))

let test_subnets () =
  let subs = Ipv4.subnets (p "10.0.0.0/22") ~len:24 in
  Alcotest.(check (list prefix)) "four /24s"
    [ p "10.0.0.0/24"; p "10.0.1.0/24"; p "10.0.2.0/24"; p "10.0.3.0/24" ]
    subs

let test_hosts () =
  Alcotest.(check int) "/24 host count" 254 (Ipv4.host_count (p "10.0.0.0/24"));
  Alcotest.(check int) "/32 host count" 1 (Ipv4.host_count (p "10.0.0.1/32"));
  Alcotest.check addr "nth host" (a "10.0.0.10") (Ipv4.nth_host (p "10.0.0.0/24") 10)

let test_allocator () =
  let alloc = Ipv4.Allocator.create ~pool:(p "10.0.0.0/30") ~len:32 in
  Alcotest.(check int) "capacity" 4 (Ipv4.Allocator.capacity alloc);
  let all = List.init 4 (fun _ -> Ipv4.Allocator.next alloc) in
  Alcotest.(check (list prefix)) "sequential"
    [ p "10.0.0.0/32"; p "10.0.0.1/32"; p "10.0.0.2/32"; p "10.0.0.3/32" ]
    all;
  Alcotest.check_raises "exhausted" (Failure "Ipv4.Allocator: pool exhausted") (fun () ->
      ignore (Ipv4.Allocator.next alloc))

let gen_addr =
  QCheck.Gen.(map Int32.of_int (int_range Int32.(to_int min_int) Int32.(to_int max_int)))

let arb_addr = QCheck.make ~print:(fun i -> Ipv4.addr_to_string (Ipv4.addr_of_int32 i)) gen_addr

let prop_addr_string_roundtrip =
  QCheck.Test.make ~name:"addr to/of string roundtrip" ~count:500 arb_addr (fun i ->
      let addr = Ipv4.addr_of_int32 i in
      match Ipv4.addr_of_string (Ipv4.addr_to_string addr) with
      | Some back -> Ipv4.equal_addr addr back
      | None -> false)

let prop_prefix_contains_network =
  QCheck.Test.make ~name:"prefix contains its network address" ~count:500
    QCheck.(pair arb_addr (int_range 0 32))
    (fun (i, len) ->
      let pre = Ipv4.prefix (Ipv4.addr_of_int32 i) len in
      Ipv4.mem (Ipv4.prefix_network pre) pre)

let prop_subnets_subsumed =
  QCheck.Test.make ~name:"subnets are subsumed by their parent" ~count:200
    QCheck.(pair arb_addr (int_range 0 28))
    (fun (i, len) ->
      let parent = Ipv4.prefix (Ipv4.addr_of_int32 i) len in
      let sub_len = min 32 (len + 3) in
      List.for_all
        (fun inner -> Ipv4.subsumes ~outer:parent ~inner)
        (Ipv4.subnets parent ~len:sub_len))

(* The string builders skip [Format]; they must print the very bytes the
   pretty-printers do (trace and flight-recorder files depend on it). *)
let prop_to_string_matches_pp =
  QCheck.Test.make ~name:"to_string bytes equal the pretty-printers" ~count:1000
    QCheck.(triple arb_addr (int_range 0 32) (int_range 1 0xFFFF_FFFF))
    (fun (i, len, n) ->
      let a = Ipv4.addr_of_int32 i in
      let pre = Ipv4.prefix a len in
      let asn = Asn.of_int n in
      String.equal (Ipv4.addr_to_string a) (Fmt.str "%a" Ipv4.pp_addr a)
      && String.equal (Ipv4.prefix_to_string pre) (Fmt.str "%a" Ipv4.pp_prefix pre)
      && String.equal (Asn.to_string asn) (Fmt.str "%a" Asn.pp asn))

let test_to_string_edges () =
  List.iter
    (fun (s, len) ->
      let pre = Ipv4.prefix (Option.get (Ipv4.addr_of_string s)) len in
      Alcotest.(check string) s (Fmt.str "%a" Ipv4.pp_prefix pre) (Ipv4.prefix_to_string pre))
    [ ("0.0.0.0", 0); ("255.255.255.255", 32); ("10.9.99.100", 8); ("100.64.10.0", 24) ];
  Alcotest.(check string) "largest ASN" "AS4294967295" (Asn.to_string (Asn.of_int 0xFFFF_FFFF))

let suite =
  [
    Alcotest.test_case "addr roundtrip" `Quick test_addr_roundtrip;
    Alcotest.test_case "addr parse errors" `Quick test_addr_parse_errors;
    Alcotest.test_case "prefix normalization" `Quick test_prefix_normalization;
    Alcotest.test_case "prefix parse" `Quick test_prefix_parse;
    Alcotest.test_case "mem" `Quick test_mem;
    Alcotest.test_case "subsumes" `Quick test_subsumes;
    Alcotest.test_case "subnets" `Quick test_subnets;
    Alcotest.test_case "hosts" `Quick test_hosts;
    Alcotest.test_case "allocator" `Quick test_allocator;
    QCheck_alcotest.to_alcotest prop_addr_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_prefix_contains_network;
    QCheck_alcotest.to_alcotest prop_subnets_subsumed;
    QCheck_alcotest.to_alcotest prop_to_string_matches_pp;
    Alcotest.test_case "to_string edge values" `Quick test_to_string_edges;
  ]
