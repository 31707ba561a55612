(* Routing information bases.

   Adj_in:  per (peer, prefix) routes as received (post-import-policy).
   Loc:     the selected best route per prefix.
   Adj_out: per (peer, prefix) attributes as advertised — consulted to
            suppress duplicate announcements and to know what to withdraw.

   Every RIB operation is an exact-match lookup, so storage is mutable
   hash-indexed prefix tables ([Net.Ipv4.Prefix_table]), not persistent
   [Prefix_map]s (whose spines dominated allocation and live heap at
   Internet scale) nor the longest-prefix-match trie the FIB keeps.
   Ordered traversals sort the packed keys, so iteration order is
   [compare_prefix] ascending and checkpoint dumps and decision ordering
   are bit-identical to the map-based representation (enforced by
   test/test_rib_differential.ml). *)

module Pt = Net.Ipv4.Prefix_table

module Adj_in = struct
  (* Two views of the same routes.  The peer-major view (one table per
     peer, dropped when emptied) serves session maintenance
     ([drop_peer], [prefixes_from]); the prefix-major view makes
     [candidates] — run on every decision process — a single lookup
     yielding a compact flat array of (peer, route) cells in ascending
     peer order.  Both are updated together; [count] tracks the total so
     [size] is O(1). *)
  type t = {
    mutable by_peer : Route.t Pt.t Net.Asn.Map.t;
    by_prefix : (int * Route.t) array Pt.t;
    mutable count : int;
  }

  let create () = { by_peer = Net.Asn.Map.empty; by_prefix = Pt.create (); count = 0 }

  (* Insert or replace a cell keeping ascending peer order.  Replacement
     mutates in place (the array is owned by the table); insertion copies. *)
  let array_set arr pi route =
    let n = Array.length arr in
    let rec pos i = if i = n || fst arr.(i) >= pi then i else pos (i + 1) in
    let i = pos 0 in
    if i < n && fst arr.(i) = pi then begin
      arr.(i) <- (pi, route);
      arr
    end
    else begin
      let out = Array.make (n + 1) (pi, route) in
      Array.blit arr 0 out 0 i;
      Array.blit arr i out (i + 1) (n - i);
      out
    end

  let array_remove arr pi =
    let n = Array.length arr in
    let rec pos i = if i = n || fst arr.(i) = pi then i else pos (i + 1) in
    let i = pos 0 in
    if i = n then arr
    else begin
      let out = Array.make (n - 1) arr.(0) in
      Array.blit arr 0 out 0 i;
      Array.blit arr (i + 1) out i (n - 1 - i);
      out
    end

  let set t ~peer (route : Route.t) =
    let prefix = Route.prefix route in
    let table =
      match Net.Asn.Map.find_opt peer t.by_peer with
      | Some table -> table
      | None ->
        let table = Pt.create () in
        t.by_peer <- Net.Asn.Map.add peer table t.by_peer;
        table
    in
    let n = Pt.size table in
    Pt.set prefix route table;
    if Pt.size table > n then t.count <- t.count + 1;
    let pi = Net.Asn.to_int peer in
    let arr = match Pt.find prefix t.by_prefix with None -> [||] | Some a -> a in
    let arr' = array_set arr pi route in
    if arr' != arr || Array.length arr = 0 then Pt.set prefix arr' t.by_prefix

  let remove_from_prefix t ~peer prefix =
    match Pt.find prefix t.by_prefix with
    | None -> ()
    | Some arr ->
      let arr' = array_remove arr (Net.Asn.to_int peer) in
      if Array.length arr' = 0 then ignore (Pt.remove prefix t.by_prefix)
      else if arr' != arr then Pt.set prefix arr' t.by_prefix

  let remove t ~peer prefix =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> false
    | Some table ->
      if Pt.remove prefix table then begin
        t.count <- t.count - 1;
        if Pt.is_empty table then t.by_peer <- Net.Asn.Map.remove peer t.by_peer;
        remove_from_prefix t ~peer prefix;
        true
      end
      else false

  (* A match, not [Option.bind]: the partial application [Pt.find prefix]
     would allocate a closure per lookup. *)
  let find t ~peer prefix =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> None
    | Some table -> Pt.find prefix table

  (* All routes for a prefix across peers, in ascending peer order. *)
  let candidates t prefix =
    match Pt.find prefix t.by_prefix with
    | None -> []
    | Some arr -> Array.fold_right (fun (_, r) acc -> r :: acc) arr []

  let prefixes_from t ~peer =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> []
    | Some table -> Pt.keys table

  let drop_peer t ~peer =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> []
    | Some table ->
      let dropped = Pt.keys table in
      t.by_peer <- Net.Asn.Map.remove peer t.by_peer;
      List.iter (fun prefix -> remove_from_prefix t ~peer prefix) dropped;
      t.count <- t.count - Pt.size table;
      dropped

  let all_prefixes t = Pt.keys t.by_prefix

  let size t = t.count

  let entries t =
    Net.Asn.Map.fold
      (fun peer table acc -> Pt.fold (fun _ r acc -> (peer, r) :: acc) table acc)
      t.by_peer []
    |> List.rev

  let clear t =
    t.by_peer <- Net.Asn.Map.empty;
    Pt.clear t.by_prefix;
    t.count <- 0
end

module Loc = struct
  type t = { best : Route.t Pt.t }

  let create () = { best = Pt.create () }

  let find t prefix = Pt.find prefix t.best

  let set t (route : Route.t) = Pt.set (Route.prefix route) route t.best

  let remove t prefix = ignore (Pt.remove prefix t.best)

  let entries t = Pt.entries t.best

  let prefixes t = Pt.keys t.best

  let size t = Pt.size t.best

  let clear t = Pt.clear t.best
end

module Adj_out = struct
  (* One table per peer, dropped as soon as it empties (a peer whose last
     advertisement was withdrawn leaves no residue), with a maintained
     total count so [size] is O(1). *)
  type t = {
    mutable by_peer : Attrs.t Pt.t Net.Asn.Map.t;
    mutable count : int;
  }

  let create () = { by_peer = Net.Asn.Map.empty; count = 0 }

  let set t ~peer prefix attrs =
    let table =
      match Net.Asn.Map.find_opt peer t.by_peer with
      | Some table -> table
      | None ->
        let table = Pt.create () in
        t.by_peer <- Net.Asn.Map.add peer table t.by_peer;
        table
    in
    let n = Pt.size table in
    Pt.set prefix attrs table;
    if Pt.size table > n then t.count <- t.count + 1

  let remove t ~peer prefix =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> ()
    | Some table ->
      if Pt.remove prefix table then begin
        t.count <- t.count - 1;
        if Pt.is_empty table then t.by_peer <- Net.Asn.Map.remove peer t.by_peer
      end

  (* As in [Adj_in.find]: no closure per lookup. *)
  let find t ~peer prefix =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> None
    | Some table -> Pt.find prefix table

  let advertised t ~peer =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> []
    | Some table -> Pt.entries table

  let drop_peer t ~peer =
    match Net.Asn.Map.find_opt peer t.by_peer with
    | None -> []
    | Some table ->
      t.by_peer <- Net.Asn.Map.remove peer t.by_peer;
      t.count <- t.count - Pt.size table;
      Pt.keys table

  let size t = t.count

  let entries t =
    Net.Asn.Map.bindings t.by_peer
    |> List.map (fun (peer, table) -> (peer, Pt.entries table))

  let clear t =
    t.by_peer <- Net.Asn.Map.empty;
    t.count <- 0
end
