(* IPv4 addresses and prefixes.

   Addresses are int32 in network order semantics (bit 31 = first octet's
   MSB); all arithmetic goes through Int32 logical ops so the full unsigned
   range works. *)

type addr = int32

type prefix = { network : int32; len : int }

let compare_addr a b =
  (* unsigned comparison *)
  Int32.unsigned_compare a b

let equal_addr = Int32.equal

let addr_of_int32 i = i

let addr_to_int32 a = a

let addr_of_octets a b c d =
  if a < 0 || a > 255 || b < 0 || b > 255 || c < 0 || c > 255 || d < 0 || d > 255 then
    invalid_arg "Ipv4.addr_of_octets";
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.logor
       (Int32.shift_left (Int32.of_int b) 16)
       (Int32.logor (Int32.shift_left (Int32.of_int c) 8) (Int32.of_int d)))

let octets a =
  let byte shift = Int32.to_int (Int32.logand (Int32.shift_right_logical a shift) 0xFFl) in
  (byte 24, byte 16, byte 8, byte 0)

let pp_addr ppf a =
  let o1, o2, o3, o4 = octets a in
  Fmt.pf ppf "%d.%d.%d.%d" o1 o2 o3 o4

(* Dotted-quad digits written straight into a buffer: the flight recorder
   names a prefix per FIB write, and [Fmt.str] costs far more than this.
   Same bytes as [pp_addr]. *)
let write_octet buf pos o =
  if o >= 100 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (48 + (o / 100)));
    Bytes.unsafe_set buf (pos + 1) (Char.unsafe_chr (48 + (o / 10 mod 10)));
    Bytes.unsafe_set buf (pos + 2) (Char.unsafe_chr (48 + (o mod 10)));
    pos + 3
  end
  else if o >= 10 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (48 + (o / 10)));
    Bytes.unsafe_set buf (pos + 1) (Char.unsafe_chr (48 + (o mod 10)));
    pos + 2
  end
  else begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (48 + o));
    pos + 1
  end

(* Writes [a] at the start of [buf] (at least 15 bytes); returns its length. *)
let write_addr buf a =
  let bits = Int32.to_int a land 0xffff_ffff in
  let pos = write_octet buf 0 (bits lsr 24) in
  Bytes.unsafe_set buf pos '.';
  let pos = write_octet buf (pos + 1) ((bits lsr 16) land 0xff) in
  Bytes.unsafe_set buf pos '.';
  let pos = write_octet buf (pos + 1) ((bits lsr 8) land 0xff) in
  Bytes.unsafe_set buf pos '.';
  write_octet buf (pos + 1) (bits land 0xff)

let addr_to_string a =
  let buf = Bytes.create 15 in
  let n = write_addr buf a in
  Bytes.sub_string buf 0 n

let addr_of_string s =
  match String.split_on_char '.' (String.trim s) with
  | [ a; b; c; d ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
    | Some a, Some b, Some c, Some d
      when a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255 && d >= 0 && d <= 255
      -> Some (addr_of_octets a b c d)
    | _ -> None)
  | _ -> None

let mask_of_len len =
  if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

(* Address bits as a non-negative OCaml int.  [Int32.to_int] returns an
   immediate value, so both directions of the hot-path int encoding are
   allocation-free reads; only [addr_of_bits] boxes (build time only). *)
let addr_to_bits (a : addr) = Int32.to_int a land 0xffff_ffff

let addr_of_bits b = Int32.of_int b

let mask_bits len = if len = 0 then 0 else 0xffff_ffff lsl (32 - len) land 0xffff_ffff

let apply_mask addr len = Int32.logand addr (mask_of_len len)

let prefix addr len =
  if len < 0 || len > 32 then invalid_arg (Fmt.str "Ipv4.prefix: bad length %d" len);
  { network = apply_mask addr len; len }

let prefix_len p = p.len

let prefix_network p = p.network

let compare_prefix p q =
  let c = Int32.unsigned_compare p.network q.network in
  if c <> 0 then c else Int.compare p.len q.len

let equal_prefix p q = compare_prefix p q = 0

let hash_prefix p = Hashtbl.hash (p.network, p.len)

let mem addr p = Int32.equal (apply_mask addr p.len) p.network

let subsumes ~outer ~inner =
  outer.len <= inner.len && Int32.equal (apply_mask inner.network outer.len) outer.network

let pp_prefix ppf p = Fmt.pf ppf "%a/%d" pp_addr p.network p.len

let prefix_to_string p =
  let buf = Bytes.create 18 in
  let n = write_addr buf p.network in
  Bytes.unsafe_set buf n '/';
  let n = write_octet buf (n + 1) p.len in
  Bytes.sub_string buf 0 n

let prefix_of_string s =
  match String.split_on_char '/' (String.trim s) with
  | [ addr; len ] -> (
    match (addr_of_string addr, int_of_string_opt len) with
    | Some a, Some l when l >= 0 && l <= 32 -> Some (prefix a l)
    | _ -> None)
  | [ addr ] -> Option.map (fun a -> prefix a 32) (addr_of_string addr)
  | _ -> None

let host_count p = if p.len >= 31 then 1 else (1 lsl (32 - p.len)) - 2

let nth_host p n =
  let span = Int32.shift_left 1l (32 - p.len) in
  if n < 0 || (p.len < 32 && Int32.unsigned_compare (Int32.of_int n) span >= 0) then
    invalid_arg "Ipv4.nth_host";
  Int32.add p.network (Int32.of_int n)

let subnets p ~len =
  if len < p.len || len > 32 then invalid_arg "Ipv4.subnets";
  let count = 1 lsl (len - p.len) in
  let step = Int32.shift_left 1l (32 - len) in
  List.init count (fun i ->
      { network = Int32.add p.network (Int32.mul (Int32.of_int i) step); len })

(* Sequential allocator of equal-sized subnets from a pool — the automatic
   IP assignment the framework performs for AS loopbacks, link nets and
   originated prefixes. *)
module Allocator = struct
  type t = { pool : prefix; len : int; mutable next : int; capacity : int }

  let create ~(pool : prefix) ~len =
    if len < pool.len || len > 32 then invalid_arg "Ipv4.Allocator.create";
    { pool; len; next = 0; capacity = 1 lsl (len - pool.len) }

  let allocated t = t.next

  let capacity t = t.capacity

  let next t =
    if t.next >= t.capacity then failwith "Ipv4.Allocator: pool exhausted";
    let step = Int32.shift_left 1l (32 - t.len) in
    let network = Int32.add t.pool.network (Int32.mul (Int32.of_int t.next) step) in
    t.next <- t.next + 1;
    { network; len = t.len }
end

(* Mutable binary trie keyed on prefix bits.  One node per distinct bit
   path; a populated node at depth [i] holds the value for the /i prefix
   spelled by the path.  Pre-order traversal (value, zero subtree, one
   subtree) visits prefixes in exactly [compare_prefix] ascending order
   (unsigned network, then length), so iteration is a drop-in
   deterministic replacement for [Prefix_map] folds.  Empty branches are
   pruned on removal so long-lived tables don't accrete dead spines.

   [generation] moves on every write that can change what the trie
   holds, so a reader that compiled the trie into another form (the data
   plane's flat tables) knows, by one int compare, whether its copy is
   still current.  A [set] that stores the very value already there
   changes nothing and leaves it alone. *)
module Prefix_trie = struct
  type 'a node = {
    mutable value : 'a option;
    mutable zero : 'a node option;
    mutable one : 'a node option;
  }

  type 'a t = { root : 'a node; mutable size : int; mutable generation : int }

  let make_node () = { value = None; zero = None; one = None }

  let create () = { root = make_node (); size = 0; generation = 0 }

  let size t = t.size

  let is_empty t = t.size = 0

  let generation t = t.generation

  (* Address bits as a non-negative int so the walk avoids Int32 boxing. *)
  let bits_of_network (n : int32) = Int32.to_int n land 0xffff_ffff

  let bit bits i = (bits lsr (31 - i)) land 1

  let find p t =
    let bits = bits_of_network p.network in
    let len = p.len in
    let rec go node i =
      if i = len then node.value
      else
        match (if bit bits i = 0 then node.zero else node.one) with
        | None -> None
        | Some c -> go c (i + 1)
    in
    go t.root 0

  let set p v t =
    let bits = bits_of_network p.network in
    let len = p.len in
    let rec go node i =
      if i = len then begin
        match node.value with
        | Some old when old == v -> ()
        | old ->
          if Option.is_none old then t.size <- t.size + 1;
          node.value <- Some v;
          t.generation <- t.generation + 1
      end
      else begin
        let child = if bit bits i = 0 then node.zero else node.one in
        match child with
        | Some c -> go c (i + 1)
        | None ->
          let c = make_node () in
          if bit bits i = 0 then node.zero <- Some c else node.one <- Some c;
          go c (i + 1)
      end
    in
    go t.root 0

  (* After the recursive call, a child left with no value and no children
     is unlinked from its parent, so emptied branches are pruned. *)
  let remove p t =
    let bits = bits_of_network p.network in
    let len = p.len in
    let rec go node i =
      if i = len then begin
        if Option.is_some node.value then begin
          t.size <- t.size - 1;
          node.value <- None;
          t.generation <- t.generation + 1
        end
      end
      else begin
        let on_zero = bit bits i = 0 in
        match (if on_zero then node.zero else node.one) with
        | None -> ()
        | Some c ->
          go c (i + 1);
          if Option.is_none c.value && Option.is_none c.zero && Option.is_none c.one
          then if on_zero then node.zero <- None else node.one <- None
      end
    in
    go t.root 0

  let lookup addr t =
    let bits = bits_of_network addr in
    let rec walk node i best =
      let best =
        match node.value with
        | Some v -> Some ({ network = apply_mask addr i; len = i }, v)
        | None -> best
      in
      if i = 32 then best
      else
        match (if bit bits i = 0 then node.zero else node.one) with
        | None -> best
        | Some c -> walk c (i + 1) best
    in
    walk t.root 0 None

  let lookup_value addr t = Option.map snd (lookup addr t)

  (* Pre-order: a node's own value (shorter length) before its zero
     subtree (same network, longer lengths) before its one subtree
     (larger networks) — i.e. [compare_prefix] ascending. *)
  let fold f t init =
    let rec walk node bits i acc =
      let acc =
        match node.value with
        | Some v -> f { network = Int32.of_int bits; len = i } v acc
        | None -> acc
      in
      let acc =
        match node.zero with Some c -> walk c bits (i + 1) acc | None -> acc
      in
      match node.one with
      | Some c -> walk c (bits lor (1 lsl (31 - i))) (i + 1) acc
      | None -> acc
    in
    walk t.root 0 0 init

  let iter f t =
    let rec walk node bits i =
      (match node.value with
      | Some v -> f { network = Int32.of_int bits; len = i } v
      | None -> ());
      (match node.zero with Some c -> walk c bits (i + 1) | None -> ());
      match node.one with
      | Some c -> walk c (bits lor (1 lsl (31 - i))) (i + 1)
      | None -> ()
    in
    walk t.root 0 0

  let entries t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

  let clear t =
    t.root.value <- None;
    t.root.zero <- None;
    t.root.one <- None;
    t.size <- 0;
    t.generation <- t.generation + 1
end

(* Exact-match table: a hash table on the packed int key
   [(network bits lsl 6) lor len], so a lookup hashes one immediate and
   compares ints — no walk, no boxing.  Ascending int keys are exactly
   [compare_prefix] ascending (unsigned network, then length), so the
   ordered traversals sort the keys and match [Prefix_map] folds.  The
   hash table is allocated on first insert: most routers' tables for most
   peers stay empty in small runs. *)
module Prefix_table = struct
  module H = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal

    (* Multiplicative mix: the low key bits are the length and, for /24s,
       eight zero host bits, so the bucket index must come from high bits. *)
    let hash k =
      let h = k * 0x3E3779B97F4A7C15 in
      h lxor (h lsr 29)
  end)

  type 'a t = { mutable tbl : 'a H.t option }

  let key p = (Int32.to_int p.network land 0xffff_ffff) lsl 6 lor p.len

  let prefix_of_key k = { network = Int32.of_int (k lsr 6); len = k land 63 }

  let create () = { tbl = None }

  let size t = match t.tbl with None -> 0 | Some h -> H.length h

  let is_empty t = size t = 0

  let find p t = match t.tbl with None -> None | Some h -> H.find_opt h (key p)

  let mem p t = match t.tbl with None -> false | Some h -> H.mem h (key p)

  let set p v t =
    match t.tbl with
    | Some h -> H.replace h (key p) v
    | None ->
      let h = H.create 16 in
      H.replace h (key p) v;
      t.tbl <- Some h

  let remove p t =
    match t.tbl with
    | None -> false
    | Some h ->
      let n = H.length h in
      H.remove h (key p);
      H.length h < n

  let sorted t =
    match t.tbl with
    | None -> []
    | Some h ->
      H.fold (fun k v acc -> (k, v) :: acc) h []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let fold f t init = List.fold_left (fun acc (k, v) -> f (prefix_of_key k) v acc) init (sorted t)

  let iter f t = List.iter (fun (k, v) -> f (prefix_of_key k) v) (sorted t)

  let entries t = List.map (fun (k, v) -> (prefix_of_key k, v)) (sorted t)

  let keys t = List.map (fun (k, _) -> prefix_of_key k) (sorted t)

  let clear t = t.tbl <- None
end

module Prefix_map = Map.Make (struct
  type t = prefix

  let compare = compare_prefix
end)

module Prefix_set = Set.Make (struct
  type t = prefix

  let compare = compare_prefix
end)
