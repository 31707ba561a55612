(* BGP path attributes, hash-consed.

   Every construction funnels through the intern tables, which return a
   canonical value per distinct attribute content: equal logical attrs are
   the SAME physical value, with small-int ids for O(1) equality.  A 10k-AS
   table stores each distinct AS-path once no matter how many (peer,
   prefix) slots reference it.

   Intern tables are domain-local (Domain.DLS): [Engine.Pool] runs whole
   experiments on separate domains, and each simulation constructs and
   compares attrs only within its own domain.  Ids are used ONLY for
   equality, never for ordering, so domain-local id assignment cannot
   perturb deterministic results. *)

type origin = Igp | Egp | Incomplete

let origin_rank = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

let origin_to_string = function Igp -> "i" | Egp -> "e" | Incomplete -> "?"

(* Content fields first, cached fields last: polymorphic [compare] on two
   canonical values resolves on content before it can reach the ids, and
   full-content-equal values are the same canonical value (ids equal), so
   structural equality/ordering semantics are unchanged. *)
type t = {
  as_path : Net.Asn.t list; (* leftmost = most recent hop *)
  next_hop : Net.Ipv4.addr;
  local_pref : int;
  med : int;
  origin : origin;
  communities : Community.Set.t;
  path_len : int; (* cached List.length as_path *)
  wire_id : int; (* canonical id of the wire-visible attrs (no local_pref) *)
  id : int; (* canonical id of the full attribute set *)
}

let default_local_pref = 100

(* --- Intern tables --------------------------------------------------- *)

(* FNV-1a step, then an xor-shift so that high input bits reach the low
   bits a [Hashtbl.Make] table indexes by. *)
let[@inline] mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

let rec hash_path h = function
  | [] -> h
  | asn :: rest -> hash_path (mix h (asn : Net.Asn.t :> int)) rest

(* Canonical AS paths are hash-consed lists: every suffix of a canonical
   path is canonical too.  The hash reads the whole path; equality stops at
   the first physically shared tail, which for a prepend onto a canonical
   path ([asn :: canonical_tail]) is after one ASN. *)
module Path = struct
  type t = Net.Asn.t list

  let rec equal a b =
    a == b
    ||
    match (a, b) with
    | x :: a', y :: b' -> Net.Asn.equal x y && equal a' b'
    | _ -> false

  let hash p = hash_path 0x2545f491 p
end

module Paths = Hashtbl.Make (Path)

(* The wire-visible content of a set (everything but local-pref), with the
   full sets that share it, one per local-pref.  A [wire] is both key and
   value of [Wires].  Each domain keeps one extra [wire] as the lookup
   probe: its content fields are overwritten before every lookup, so a hit
   allocates nothing.  Entries stored in the table are never overwritten. *)
type wire = {
  mutable w_path : Net.Asn.t list; (* canonical *)
  mutable w_next_hop : Net.Ipv4.addr;
  mutable w_med : int;
  mutable w_origin : origin;
  mutable w_communities : Community.Set.t;
  mutable w_hash : int;
  w_id : int;
  mutable w_sets : t list;
}

module Wires = Hashtbl.Make (struct
  type t = wire

  let equal a b =
    a.w_hash = b.w_hash && a.w_path == b.w_path
    && Net.Ipv4.equal_addr a.w_next_hop b.w_next_hop
    && a.w_med = b.w_med && a.w_origin = b.w_origin
    && (a.w_communities == b.w_communities
       || Community.Set.equal a.w_communities b.w_communities)

  let hash w = w.w_hash
end)

type tables = {
  paths : Net.Asn.t list Paths.t;
  wires : wire Wires.t;
  probe : wire;
  mutable next_id : int;
}

let tables_key =
  Domain.DLS.new_key (fun () ->
      {
        paths = Paths.create 1024;
        wires = Wires.create 1024;
        probe =
          {
            w_path = [];
            w_next_hop = Net.Ipv4.addr_of_int32 0l;
            w_med = 0;
            w_origin = Igp;
            w_communities = Community.Set.empty;
            w_hash = 0;
            w_id = -1;
            w_sets = [];
          };
        next_id = 0;
      })

(* Canonical form of any path: found whole, or built from its canonical
   tail (reusing the caller's cons cells when the tail already was). *)
let rec intern_path paths path =
  match path with
  | [] -> []
  | asn :: rest -> (
    match Paths.find paths path with
    | canonical -> canonical
    | exception Not_found ->
      let rest' = intern_path paths rest in
      let canonical = if rest' == rest then path else asn :: rest' in
      Paths.add paths canonical canonical;
      canonical)

(* [asn :: tail] for a canonical [tail]. *)
let cons_path paths asn tail =
  let path = asn :: tail in
  match Paths.find paths path with
  | canonical -> canonical
  | exception Not_found ->
    Paths.add paths path path;
    path

let rec prepend_path paths asn times path =
  if times <= 0 then path else prepend_path paths asn (times - 1) (cons_path paths asn path)

let hash_wire ~as_path ~next_hop ~med ~origin ~communities =
  let h = Path.hash as_path in
  let h = mix (mix (mix h (Net.Ipv4.addr_to_bits next_hop)) med) (origin_rank origin) in
  Community.Set.fold (fun (a, tag) h -> mix (mix h a) tag) communities h

let find_wire tbl ~as_path ~next_hop ~med ~origin ~communities =
  let p = tbl.probe in
  p.w_path <- as_path;
  p.w_next_hop <- next_hop;
  p.w_med <- med;
  p.w_origin <- origin;
  p.w_communities <- communities;
  p.w_hash <- hash_wire ~as_path ~next_hop ~med ~origin ~communities;
  match Wires.find tbl.wires p with
  | w -> w
  | exception Not_found ->
    let w = { p with w_id = Wires.length tbl.wires; w_sets = [] } in
    Wires.add tbl.wires w w;
    w

let rec with_lp lp = function
  | [] -> raise_notrace Not_found
  | t :: rest -> if t.local_pref = lp then t else with_lp lp rest

(* Intern a set whose [as_path] is already canonical on this domain. *)
let intern_canonical tbl ~as_path ~next_hop ~local_pref ~med ~origin ~communities =
  let w = find_wire tbl ~as_path ~next_hop ~med ~origin ~communities in
  match with_lp local_pref w.w_sets with
  | t -> t
  | exception Not_found ->
    let t =
      {
        as_path;
        next_hop = w.w_next_hop;
        local_pref;
        med;
        origin;
        communities = w.w_communities;
        path_len = List.length as_path;
        wire_id = w.w_id;
        id = tbl.next_id;
      }
    in
    tbl.next_id <- tbl.next_id + 1;
    w.w_sets <- t :: w.w_sets;
    t

let intern ~as_path ~next_hop ~local_pref ~med ~origin ~communities =
  let tbl = Domain.DLS.get tables_key in
  intern_canonical tbl ~as_path:(intern_path tbl.paths as_path) ~next_hop ~local_pref ~med
    ~origin ~communities

(* Re-intern with some fields replaced; [t.as_path] is canonical. *)
let reintern t ~next_hop ~local_pref ~med ~communities =
  intern_canonical (Domain.DLS.get tables_key) ~as_path:t.as_path ~next_hop ~local_pref ~med
    ~origin:t.origin ~communities

let make ?(as_path = []) ?(local_pref = default_local_pref) ?(med = 0) ?(origin = Igp)
    ?(communities = Community.Set.empty) ~next_hop () =
  intern ~as_path ~next_hop ~local_pref ~med ~origin ~communities

let as_path t = t.as_path

let path_length t = t.path_len

let path_contains t asn = List.exists (Net.Asn.equal asn) t.as_path

let prepend t asn =
  let tbl = Domain.DLS.get tables_key in
  intern_canonical tbl ~as_path:(cons_path tbl.paths asn t.as_path) ~next_hop:t.next_hop
    ~local_pref:t.local_pref ~med:t.med ~origin:t.origin ~communities:t.communities

(* What an eBGP speaker advertises: [asn] prepended [times] times, the new
   next hop and local-pref, in one intern instead of a chain of them. *)
let export t ~asn ~times ~next_hop ~local_pref =
  let tbl = Domain.DLS.get tables_key in
  intern_canonical tbl ~as_path:(prepend_path tbl.paths asn times t.as_path) ~next_hop
    ~local_pref ~med:t.med ~origin:t.origin ~communities:t.communities

let origin_as t =
  match List.rev t.as_path with [] -> None | last :: _ -> Some last

let neighbor_as t = match t.as_path with [] -> None | first :: _ -> Some first

let with_local_pref t lp =
  if lp = t.local_pref then t
  else reintern t ~next_hop:t.next_hop ~local_pref:lp ~med:t.med ~communities:t.communities

let with_next_hop t nh =
  if Net.Ipv4.equal_addr nh t.next_hop then t
  else reintern t ~next_hop:nh ~local_pref:t.local_pref ~med:t.med ~communities:t.communities

let with_med t med =
  if med = t.med then t
  else reintern t ~next_hop:t.next_hop ~local_pref:t.local_pref ~med ~communities:t.communities

let add_community t c =
  if Community.Set.mem c t.communities then t
  else
    reintern t ~next_hop:t.next_hop ~local_pref:t.local_pref ~med:t.med
      ~communities:(Community.Set.add c t.communities)

let has_community t c = Community.Set.mem c t.communities

let equal a b = a == b

(* Equality of everything a peer would see on the wire: used to suppress
   duplicate advertisements in Adj-RIB-Out.  With interning this is a
   single int comparison. *)
let wire_equal a b = a.wire_id = b.wire_id

let id t = t.id

let wire_id t = t.wire_id

type intern_stats = { distinct_paths : int; distinct_wire : int; distinct_full : int }

let intern_stats () =
  let tbl = Domain.DLS.get tables_key in
  {
    distinct_paths = Paths.length tbl.paths;
    distinct_wire = Wires.length tbl.wires;
    distinct_full = tbl.next_id;
  }

let pp_path ppf path =
  if path = [] then Fmt.string ppf "(empty)"
  else Fmt.(list ~sep:(any " ") Net.Asn.pp) ppf path

let pp ppf t =
  Fmt.pf ppf "path=[%a] nh=%a lp=%d med=%d origin=%s" pp_path t.as_path Net.Ipv4.pp_addr
    t.next_hop t.local_pref t.med (origin_to_string t.origin)

(* Re-intern on the CURRENT domain: intern tables live in Domain.DLS, so a
   value minted on another domain (a cross-shard message payload) must be
   rebuilt here before [equal]'s pointer comparison is meaningful.  On the
   minting domain this is the identity. *)
let rehash t =
  intern ~as_path:t.as_path ~next_hop:t.next_hop ~local_pref:t.local_pref ~med:t.med
    ~origin:t.origin ~communities:t.communities
