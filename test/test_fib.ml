(* Net.Fib: longest-prefix-match semantics, checked against a reference
   linear scan. *)

open Net

let p s = Option.get (Ipv4.prefix_of_string s)

let a s = Option.get (Ipv4.addr_of_string s)

let test_basic_lpm () =
  let fib = Fib.create () in
  Fib.insert fib (p "10.0.0.0/8") "eight";
  Fib.insert fib (p "10.1.0.0/16") "sixteen";
  Fib.insert fib (p "10.1.2.0/24") "twentyfour";
  Alcotest.(check (option string)) "deepest" (Some "twentyfour")
    (Fib.lookup_value fib (a "10.1.2.3"));
  Alcotest.(check (option string)) "middle" (Some "sixteen")
    (Fib.lookup_value fib (a "10.1.9.1"));
  Alcotest.(check (option string)) "outer" (Some "eight")
    (Fib.lookup_value fib (a "10.200.0.1"));
  Alcotest.(check (option string)) "miss" None (Fib.lookup_value fib (a "11.0.0.1"))

let test_default_route () =
  let fib = Fib.create () in
  Fib.insert fib (p "0.0.0.0/0") "default";
  Fib.insert fib (p "10.0.0.0/8") "ten";
  Alcotest.(check (option string)) "specific beats default" (Some "ten")
    (Fib.lookup_value fib (a "10.0.0.1"));
  Alcotest.(check (option string)) "default catches rest" (Some "default")
    (Fib.lookup_value fib (a "99.0.0.1"))

let test_replace_and_remove () =
  let fib = Fib.create () in
  Fib.insert fib (p "10.0.0.0/8") 1;
  Fib.insert fib (p "10.0.0.0/8") 2;
  Alcotest.(check int) "size after replace" 1 (Fib.size fib);
  Alcotest.(check (option int)) "replaced" (Some 2) (Fib.lookup_value fib (a "10.0.0.1"));
  Fib.remove fib (p "10.0.0.0/8");
  Alcotest.(check int) "size after remove" 0 (Fib.size fib);
  Alcotest.(check (option int)) "removed" None (Fib.lookup_value fib (a "10.0.0.1"));
  (* removing an absent prefix is a no-op *)
  Fib.remove fib (p "10.0.0.0/8")

let test_exact_find () =
  let fib = Fib.create () in
  Fib.insert fib (p "10.1.0.0/16") "x";
  Alcotest.(check (option string)) "exact hit" (Some "x") (Fib.find fib (p "10.1.0.0/16"));
  Alcotest.(check (option string)) "different length misses" None
    (Fib.find fib (p "10.1.0.0/24"))

let test_entries_sorted () =
  let fib = Fib.create () in
  List.iter (fun s -> Fib.insert fib (p s) s) [ "10.1.0.0/16"; "9.0.0.0/8"; "10.0.0.0/8" ];
  Alcotest.(check (list string)) "sorted entries" [ "9.0.0.0/8"; "10.0.0.0/8"; "10.1.0.0/16" ]
    (List.map snd (Fib.entries fib))

let test_clear () =
  let fib = Fib.create () in
  Fib.insert fib (p "10.0.0.0/8") 1;
  Fib.clear fib;
  Alcotest.(check int) "cleared" 0 (Fib.size fib);
  Alcotest.(check (option int)) "empty lookup" None (Fib.lookup_value fib (a "10.0.0.1"))

(* Compiled copies of a FIB are reused while its generation holds, so
   every write that can change an entry must move it. *)
let test_generation_moves_on_every_write () =
  let fib = Fib.create () in
  let moved what f =
    let g = Fib.generation fib in
    f ();
    Alcotest.(check bool) (what ^ " moves the generation") true (Fib.generation fib <> g)
  in
  let kept what f =
    let g = Fib.generation fib in
    f ();
    Alcotest.(check int) (what ^ " keeps the generation") g (Fib.generation fib)
  in
  moved "insert" (fun () -> Fib.insert fib (p "10.0.0.0/8") 1);
  moved "replacing insert" (fun () -> Fib.insert fib (p "10.0.0.0/8") 2);
  kept "insert of the stored value" (fun () -> Fib.insert fib (p "10.0.0.0/8") 2);
  kept "lookup" (fun () -> ignore (Fib.lookup_value fib (a "10.0.0.1")));
  moved "remove" (fun () -> Fib.remove fib (p "10.0.0.0/8"));
  kept "remove of an absent prefix" (fun () -> Fib.remove fib (p "10.0.0.0/8"));
  Fib.insert fib (p "10.0.0.0/8") 1;
  moved "clear" (fun () -> Fib.clear fib)

(* Reference LPM: linear scan over all entries. *)
let reference_lookup entries addr =
  List.fold_left
    (fun best (pre, v) ->
      if Ipv4.mem addr pre then
        match best with
        | Some (bp, _) when Ipv4.prefix_len bp >= Ipv4.prefix_len pre -> best
        | _ -> Some (pre, v)
      else best)
    None entries

let gen_prefix =
  QCheck.Gen.(
    let* i = map Int32.of_int (int_range Int32.(to_int min_int) Int32.(to_int max_int)) in
    let* len = int_range 0 32 in
    return (Ipv4.prefix (Ipv4.addr_of_int32 i) len))

let prop_lpm_matches_reference =
  let gen =
    QCheck.Gen.(
      let* prefixes = list_size (int_range 0 30) gen_prefix in
      let* probes =
        list_size (int_range 1 20)
          (map
             (fun i -> Ipv4.addr_of_int32 (Int32.of_int i))
             (int_range Int32.(to_int min_int) Int32.(to_int max_int)))
      in
      return (prefixes, probes))
  in
  QCheck.Test.make ~name:"trie LPM matches linear-scan reference" ~count:300
    (QCheck.make ~print:(fun (ps, _) -> Fmt.str "%d prefixes" (List.length ps)) gen)
    (fun (prefixes, probes) ->
      let fib = Fib.create () in
      let entries = List.mapi (fun i pre -> (pre, i)) prefixes in
      (* Later inserts replace earlier ones for identical prefixes, so the
         reference must deduplicate keeping the last value. *)
      let dedup =
        List.fold_left
          (fun acc (pre, v) ->
            (pre, v) :: List.filter (fun (q, _) -> not (Ipv4.equal_prefix pre q)) acc)
          [] entries
      in
      List.iter (fun (pre, v) -> Fib.insert fib pre v) entries;
      List.for_all
        (fun probe ->
          let got = Fib.lookup_value fib probe in
          let want = Option.map snd (reference_lookup dedup probe) in
          got = want)
        probes)

let suite =
  [
    Alcotest.test_case "basic LPM" `Quick test_basic_lpm;
    Alcotest.test_case "default route" `Quick test_default_route;
    Alcotest.test_case "replace and remove" `Quick test_replace_and_remove;
    Alcotest.test_case "exact find" `Quick test_exact_find;
    Alcotest.test_case "entries sorted" `Quick test_entries_sorted;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "generation moves on every write" `Quick
      test_generation_moves_on_every_write;
    QCheck_alcotest.to_alcotest prop_lpm_matches_reference;
  ]
