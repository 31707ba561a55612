(* Allocation-free data-plane fast path.

   A compiled, frozen view of a network's forwarding state — legacy FIBs,
   SDN flow tables, local delivery sets and link liveness — over dense
   node indices, through which packed int-encoded probes (src index, dst
   address bits, TTL, all immediate ints) are forwarded in a batch TTL
   walk: one [forward] call resolves the probe's entire path and
   classifies its fate without building a [Packet.t] record, an [option],
   or any other per-hop value.

   The structure is a snapshot: fill it, fire millions of probes, take a
   new one after the control plane moves.  Each node's forwarding state
   is a [table], compiled once per change of the live table and shared,
   unmodified, by every snapshot taken until the next change; a snapshot
   itself owns only its local sets, link liveness and walk scratch.  Loop
   detection uses a preallocated per-snapshot visited-stamp cursor, so
   repeated walks share scratch instead of allocating visited sets.  Not
   domain-safe: one snapshot per domain. *)

type fate = Delivered | Blackholed | Looped | Ttl_expired

let fate_code = function Delivered -> 0 | Blackholed -> 1 | Looped -> 2 | Ttl_expired -> 3

let fate_of_code = function
  | 0 -> Delivered
  | 1 -> Blackholed
  | 2 -> Looped
  | 3 -> Ttl_expired
  | c -> invalid_arg (Fmt.str "Dataplane.fate_of_code: %d" c)

let fate_to_string = function
  | Delivered -> "delivered"
  | Blackholed -> "blackhole"
  | Looped -> "loop"
  | Ttl_expired -> "ttl_expired"

let pp_fate ppf f = Fmt.string ppf (fate_to_string f)

(* Action code in forwarding entries: a dense next-node index, or [drop]
   for anything that cannot carry the probe onward (no route, an SDN Drop
   or controller punt, a next hop outside the snapshot). *)
let drop = -1

(* --- Compiled per-node tables -------------------------------------------- *)

(* One node's forwarding state, compiled once and never written again, so
   any number of snapshots can share it.

   [Flat] answers longest-prefix match with at most one hash probe per
   distinct prefix length present: [lens] holds those lengths longest
   first (with their masks in [lmasks]), and an open-addressing table
   maps the packed key [(network bits lsl 6) lor len] to its action code.
   [keys] has a power-of-two size at least twice the entry count, so a
   probe always ends at a match or an empty ([-1]) slot.

   [Scan] keeps a rule list whose first-match order is not
   longest-prefix-first: first match wins, exactly like the live table. *)
type table =
  | Flat of { lens : int array; lmasks : int array; keys : int array; acts : int array }
  | Scan of { nets : int array; masks : int array; acts : int array }

let slot key cap_mask =
  let h = key * 0x3E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land cap_mask

let key_of bits len = (bits lsl 6) lor len

(* [entries] are (network bits, length, action) with each prefix's first
   occurrence winning over later ones. *)
let flat entries =
  let n = List.length entries in
  let cap = ref 2 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let cap_mask = !cap - 1 in
  let keys = Array.make !cap (-1) and acts = Array.make !cap drop in
  let present = ref 0 in
  List.iter
    (fun (bits, len, act) ->
      let key = key_of bits len in
      let rec place i =
        let k = keys.(i) in
        if k < 0 then begin
          keys.(i) <- key;
          acts.(i) <- act
        end
        else if k <> key then place ((i + 1) land cap_mask)
      in
      place (slot key cap_mask);
      present := !present lor (1 lsl len))
    entries;
  let lens =
    Array.of_list
      (List.filter (fun len -> !present land (1 lsl len) <> 0) (List.init 33 (fun i -> 32 - i)))
  in
  Flat { lens; lmasks = Array.map Ipv4.mask_bits lens; keys; acts }

let no_route = flat []

let fib_table fib code =
  let entries = ref [] in
  Fib.iter fib (fun p v ->
      entries :=
        (Ipv4.addr_to_bits (Ipv4.prefix_network p), Ipv4.prefix_len p, code v) :: !entries);
  flat !entries

(* A first-match list is a longest-prefix-match table exactly when its
   prefix lengths never increase along the order: the first rule that
   matches is then a longest matching one, and two rules of one length
   can both match only when they share their prefix, where the earlier
   wins (the first occurrence [flat] keeps).  Every table the framework
   installs has this order (priority = prefix length); any other keeps
   the scan. *)
let rec non_increasing = function
  | (p, _) :: ((q, _) :: _ as rest) ->
    Ipv4.prefix_len p >= Ipv4.prefix_len q && non_increasing rest
  | _ -> true

let rule_table rules =
  if non_increasing rules then
    flat
      (List.map
         (fun (p, act) -> (Ipv4.addr_to_bits (Ipv4.prefix_network p), Ipv4.prefix_len p, act))
         rules)
  else begin
    let rules = Array.of_list rules in
    Scan
      {
        nets = Array.map (fun (p, _) -> Ipv4.addr_to_bits (Ipv4.prefix_network p)) rules;
        masks = Array.map (fun (p, _) -> Ipv4.mask_bits (Ipv4.prefix_len p)) rules;
        acts = Array.map snd rules;
      }
  end

let is_flat = function Flat _ -> true | Scan _ -> false

(* Every scan on the hot path is a module-level recursion: a local
   [let rec] capturing the probe would allocate its closure on each
   call, and at millions of probes per second that is the whole
   allocation budget. *)

let rec probe keys key i cap_mask =
  let k = Array.unsafe_get keys i in
  if k = key then i else if k < 0 then -1 else probe keys key ((i + 1) land cap_mask) cap_mask

let rec flat_lookup lens lmasks keys acts dst_bits j =
  if j >= Array.length lens then drop
  else begin
    let key = key_of (dst_bits land Array.unsafe_get lmasks j) (Array.unsafe_get lens j) in
    let cap_mask = Array.length keys - 1 in
    let s = probe keys key (slot key cap_mask) cap_mask in
    if s >= 0 then Array.unsafe_get acts s else flat_lookup lens lmasks keys acts dst_bits (j + 1)
  end

let rec rules_scan nets masks acts dst_bits j n =
  if j >= n then drop
  else if dst_bits land Array.unsafe_get masks j = Array.unsafe_get nets j then
    Array.unsafe_get acts j
  else rules_scan nets masks acts dst_bits (j + 1) n

let lookup table dst_bits =
  match table with
  | Flat f -> flat_lookup f.lens f.lmasks f.keys f.acts dst_bits 0
  | Scan r -> rules_scan r.nets r.masks r.acts dst_bits 0 (Array.length r.nets)

(* --- Snapshots ------------------------------------------------------------ *)

type layout = { asns : int array; (* dense index -> AS number *) index : (int, int) Hashtbl.t }

let layout asns =
  let index = Hashtbl.create (max 16 (Array.length asns)) in
  Array.iteri (fun i a -> Hashtbl.replace index a i) asns;
  { asns = Array.copy asns; index }

type t = {
  n : int;
  layout : layout;
  fwd : table array;
  locals : int array array; (* per node: (masked network, mask) pairs... *)
  local_len : int array; (* ...of which this many ints are in use *)
  links : Bytes.t; (* n*n directed adjacency, '\001' = usable *)
  visited : int array; (* loop-detection stamps, one slot per node *)
  path : int array; (* the last walk's node sequence *)
  mutable path_len : int;
  mutable stamp : int;
}

let create layout =
  let n = Array.length layout.asns in
  {
    n;
    layout;
    fwd = Array.make n no_route;
    locals = Array.make n [||];
    local_len = Array.make n 0;
    links = Bytes.make (n * n) '\000';
    visited = Array.make n (-1);
    path = Array.make (n + 1) (-1);
    path_len = 0;
    stamp = 0;
  }

let size t = t.n

let asn_at t i = t.layout.asns.(i)

let index_of t asn = match Hashtbl.find_opt t.layout.index asn with Some i -> i | None -> -1

(* --- Building the snapshot (allocation here is fine) -------------------- *)

let push_local t i net mask =
  let a = t.locals.(i) and len = t.local_len.(i) in
  let a =
    if len < Array.length a then a
    else begin
      let grown = Array.make (max 4 (2 * len)) 0 in
      Array.blit a 0 grown 0 len;
      t.locals.(i) <- grown;
      grown
    end
  in
  a.(len) <- net;
  a.(len + 1) <- mask;
  t.local_len.(i) <- len + 2

let add_local t i prefix =
  push_local t i
    (Ipv4.addr_to_bits (Ipv4.prefix_network prefix))
    (Ipv4.mask_bits (Ipv4.prefix_len prefix))

let add_local_addr t i addr = push_local t i (Ipv4.addr_to_bits addr) (Ipv4.mask_bits 32)

let set_table t i table = t.fwd.(i) <- table

let set_link t i j up = Bytes.set t.links ((i * t.n) + j) (if up then '\001' else '\000')

(* --- The hot path ------------------------------------------------------- *)

let rec local_scan pairs dst_bits j k =
  j < k
  && (dst_bits land Array.unsafe_get pairs (j + 1) = Array.unsafe_get pairs j
     || local_scan pairs dst_bits (j + 2) k)

let is_local t i dst_bits =
  local_scan (Array.unsafe_get t.locals i) dst_bits 0 (Array.unsafe_get t.local_len i)

let next_of t i dst_bits = lookup (Array.unsafe_get t.fwd i) dst_bits

let link_ok t i j = Bytes.unsafe_get t.links ((i * t.n) + j) <> '\000'

(* Forward one probe to its final fate.  Mirrors the live per-hop order
   exactly (local delivery, then TTL, then lookup, then link liveness);
   the only addition is loop classification: forwarding state is frozen
   during a walk, so revisiting a node proves a persistent cycle — a real
   packet would go on to die of TTL there.  Returns the packed int
   [(hops lsl 2) lor fate_code]; nothing on this path allocates. *)
let rec walk t stamp dst_bits cur ttl hops =
  Array.unsafe_set t.path hops cur;
  if is_local t cur dst_bits then begin
    t.path_len <- hops + 1;
    hops lsl 2 (* Delivered = 0 *)
  end
  else if Array.unsafe_get t.visited cur = stamp then begin
    t.path_len <- hops + 1;
    (hops lsl 2) lor 2 (* Looped *)
  end
  else begin
    Array.unsafe_set t.visited cur stamp;
    if ttl <= 0 then begin
      t.path_len <- hops + 1;
      (hops lsl 2) lor 3 (* Ttl_expired *)
    end
    else begin
      let nxt = next_of t cur dst_bits in
      if nxt < 0 || not (link_ok t cur nxt) then begin
        t.path_len <- hops + 1;
        (hops lsl 2) lor 1 (* Blackholed *)
      end
      else walk t stamp dst_bits nxt (ttl - 1) (hops + 1)
    end
  end

let forward t ~src ~dst_bits ~ttl =
  if src < 0 || src >= t.n then invalid_arg "Dataplane.forward: bad src index";
  t.stamp <- t.stamp + 1;
  walk t t.stamp dst_bits src ttl 0

let result_fate r = fate_of_code (r land 3)

let result_fate_code r = r land 3

let result_hops r = r lsr 2

(* The node-index path of the most recent [forward] (copied out). *)
let last_path t = Array.sub t.path 0 t.path_len

let pp ppf t =
  let scans = Array.fold_left (fun a f -> if is_flat f then a else a + 1) 0 t.fwd in
  Fmt.pf ppf "dataplane snapshot: %d nodes, %d flat tables, %d first-match scans" t.n
    (t.n - scans) scans
