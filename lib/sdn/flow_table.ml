(* A switch's flow table: highest-priority matching rule wins; among equal
   priorities the longest prefix wins (the compiler sets priority = prefix
   length, so both tie-breaks agree).

   Rules are kept in an array sorted by (priority desc, prefix-length
   desc, prefix asc): lookup walks from the front and stops at the first
   match — the winner by construction — instead of filtering the whole
   table and folding for the best.  Install/delete (control plane, rare)
   rebuild the array; occupancy is [Array.length], O(1), so the metrics
   gauge no longer walks the table on every collect.

   [generation] moves on every write to [rules], the in-place same-match
   replacement included, so the data plane recompiles a switch's table
   only when it moved. *)

type t = {
  mutable rules : Flow.rule array; (* sorted by [order] *)
  mutable generation : int;
  mutable misses : int;
  misses_c : Engine.Metrics.Counter.t option;
}

(* Total order on rules: descending priority, then descending prefix
   length, then ascending prefix for determinism.  [order a b = 0] iff
   [Flow.same_match a b]: equal prefixes have equal lengths, so the
   (priority, prefix) pair decides both. *)
let order (a : Flow.rule) (b : Flow.rule) =
  if a.Flow.priority <> b.Flow.priority then Int.compare b.Flow.priority a.Flow.priority
  else begin
    let la = Net.Ipv4.prefix_len a.Flow.match_prefix
    and lb = Net.Ipv4.prefix_len b.Flow.match_prefix in
    if la <> lb then Int.compare lb la
    else Net.Ipv4.compare_prefix a.Flow.match_prefix b.Flow.match_prefix
  end

(* [metrics]/[labels] are optional so tables can exist outside a simulation
   (tests, offline compilation); when given, misses become a labeled counter
   and occupancy a pull-style gauge synced at snapshot time. *)
let create ?metrics ?(labels = []) () =
  let misses_c =
    Option.map
      (fun m ->
        Engine.Metrics.counter m ~help:"lookups that matched no rule" ~labels
          "sdn_flow_table_misses_total")
      metrics
  in
  let t = { rules = [||]; generation = 0; misses = 0; misses_c } in
  Option.iter
    (fun m ->
      let g =
        Engine.Metrics.gauge m ~help:"installed flow rules" ~labels "sdn_flow_table_rules"
      in
      Engine.Metrics.on_collect m (fun () ->
          Engine.Metrics.Gauge.set g (float_of_int (Array.length t.rules))))
    metrics;
  t

let rules t = Array.to_list t.rules

let size t = Array.length t.rules

let misses t = t.misses

let generation t = t.generation

(* First index whose rule sorts at-or-after [rule]; [Array.length] when
   every rule sorts before it. *)
let insertion_point t rule =
  let lo = ref 0 and hi = ref (Array.length t.rules) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if order t.rules.(mid) rule < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let add t rule =
  (* Add-or-replace on the (match, priority) key. *)
  let i = insertion_point t rule in
  if i < Array.length t.rules && Flow.same_match t.rules.(i) rule then begin
    t.rules.(i) <- rule;
    t.generation <- t.generation + 1
  end
  else begin
    let n = Array.length t.rules in
    let rules = Array.make (n + 1) rule in
    Array.blit t.rules 0 rules 0 i;
    Array.blit t.rules i rules (i + 1) (n - i);
    t.rules <- rules;
    t.generation <- t.generation + 1
  end

let filter_rules t keep =
  if not (Array.for_all keep t.rules) then begin
    t.rules <- Array.of_list (List.filter keep (Array.to_list t.rules));
    t.generation <- t.generation + 1
  end

let delete t ~match_prefix =
  filter_rules t (fun r -> not (Net.Ipv4.equal_prefix r.Flow.match_prefix match_prefix))

let delete_exact t rule = filter_rules t (fun r -> not (Flow.same_match r rule))

(* Remove this very rule record (physical identity) — used by timeout
   expiry so that a same-key replacement installed later is never the
   victim of the old rule's timer. *)
let remove_physical t rule =
  let before = Array.length t.rules in
  filter_rules t (fun r -> r != rule);
  Array.length t.rules < before

let mem_physical t rule = Array.exists (fun r -> r == rule) t.rules

let clear t =
  t.rules <- [||];
  t.generation <- t.generation + 1

let lookup t addr =
  (* Sorted by (priority desc, length desc): the first match is the
     winner, and equal-length prefixes are disjoint, so no later rule of
     the same rank can also match. *)
  let n = Array.length t.rules in
  let rec scan i =
    if i >= n then None
    else begin
      let r = t.rules.(i) in
      if Flow.matches r addr then Some r else scan (i + 1)
    end
  in
  match scan 0 with
  | None ->
    t.misses <- t.misses + 1;
    Option.iter Engine.Metrics.Counter.inc t.misses_c;
    None
  | Some best ->
    best.Flow.packets <- best.Flow.packets + 1;
    Some best

(* Index of the winning rule for an address, [-1] on a miss.  Unlike
   [lookup] this neither boxes the result nor mutates anything (no
   [packets]/[misses] bump, no metric), so verifiers and the data-plane
   fast path can interrogate a table without perturbing its counters.
   Matching is pure int arithmetic on the prefix bits: [Int32.to_int] is
   an immediate read, so the scan allocates nothing. *)
let lookup_idx t addr_bits =
  let rules = t.rules in
  let n = Array.length rules in
  let rec scan i =
    if i >= n then -1
    else begin
      let p = rules.(i).Flow.match_prefix in
      let net = Net.Ipv4.addr_to_bits (Net.Ipv4.prefix_network p) in
      let mask = Net.Ipv4.mask_bits (Net.Ipv4.prefix_len p) in
      if addr_bits land mask = net then i else scan (i + 1)
    end
  in
  scan 0

let nth_rule t i = t.rules.(i)

let find t ~match_prefix =
  let rec scan i =
    if i >= Array.length t.rules then None
    else begin
      let r = t.rules.(i) in
      if Net.Ipv4.equal_prefix r.Flow.match_prefix match_prefix then Some r else scan (i + 1)
    end
  in
  scan 0

let entries_sorted t = Array.to_list t.rules

let pp ppf t =
  Fmt.pf ppf "@[<v>flow table (%d rules, %d misses)" (size t) t.misses;
  List.iter (fun r -> Fmt.pf ppf "@,  %a" Flow.pp r) (entries_sorted t);
  Fmt.pf ppf "@]"
