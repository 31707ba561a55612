(** Allocation-free data-plane fast path: a frozen snapshot of
    forwarding state (one compiled {!table} per node + local delivery
    sets + link liveness) over dense node indices, walked by packed
    int-encoded probes.  One {!forward} call resolves a probe's whole
    path — no [Packet.t] record, no per-hop [option], no allocation at
    all on the hot path.  Fill a snapshot with the builder functions
    (allocation there is fine), then fire probes; take a new snapshot
    after the control plane changes.  Tables are immutable, so a new
    snapshot reuses the tables of every node whose live state did not
    change, and an old snapshot keeps answering for the state it was
    taken from.  Not domain-safe: one snapshot per domain. *)

type t

(** A probe's terminal classification.  [Looped] means the walk revisited
    a node: with frozen state that proves a persistent forwarding cycle
    (a live packet would continue around it and die of TTL). *)
type fate = Delivered | Blackholed | Looped | Ttl_expired

val fate_code : fate -> int
(** Stable int codes 0..3, in declaration order. *)

val fate_of_code : int -> fate
(** @raise Invalid_argument outside 0..3. *)

val fate_to_string : fate -> string
(** ["delivered"], ["blackhole"], ["loop"], ["ttl_expired"] — the metric
    label values. *)

val pp_fate : Format.formatter -> fate -> unit

val drop : int
(** The non-index action code ([-1]): no route / drop / controller punt. *)

(** {2 Compiled tables} *)

type table
(** One node's forwarding state, compiled once and never modified: look
    up a destination's action code (a dense next index, or {!drop}).
    Either a flat longest-prefix-match table — the distinct prefix
    lengths present, longest first, and one open-addressing [int] table
    keyed by the packed [(network bits lsl 6) lor len] — or, for a rule
    list whose first-match order is not longest-prefix-first, that list
    scanned in order. *)

val no_route : table
(** Every lookup answers {!drop}. *)

val fib_table : 'a Fib.t -> ('a -> int) -> table
(** The flat table of a FIB whose values map to action codes through the
    given function: longest prefix wins, exactly like
    {!Fib.lookup_value}. *)

val rule_table : (Ipv4.prefix * int) list -> table
(** A flow table given in its first-match order (priority desc, then
    length desc) as (match prefix, action code) pairs: first match wins,
    exactly like the live table.  When lengths never increase along the
    order — every table the framework installs, where priority = prefix
    length — this is longest-prefix match and compiles to the flat
    table, keeping each prefix's first rule; any other order keeps the
    first-match scan. *)

val is_flat : table -> bool
(** Whether the table compiled to the flat form ([false]: first-match
    scan). *)

val lookup : table -> int -> int
(** The action code for a destination given as {!Ipv4.addr_to_bits}
    bits; {!drop} on a miss.  Allocates nothing. *)

(** {2 Snapshots} *)

type layout
(** The dense index assignment of a node set, shareable by any number of
    snapshots. *)

val layout : int array -> layout
(** Dense index = position of the AS number in the array. *)

val create : layout -> t
(** An empty snapshot: every node {!no_route}, nothing local, no link
    usable. *)

val size : t -> int

val asn_at : t -> int -> int
(** The AS number at a dense index. *)

val index_of : t -> int -> int
(** Dense index of an AS number, [-1] when absent. *)

(** {2 Building} *)

val add_local : t -> int -> Ipv4.prefix -> unit
(** Addresses in this prefix are locally delivered at the node
    (amortized O(1)). *)

val add_local_addr : t -> int -> Ipv4.addr -> unit
(** Single-address (/32) local delivery — router loopbacks. *)

val set_table : t -> int -> table -> unit
(** The node's forwarding table.  Tables are immutable, so one table
    may serve many snapshots. *)

val set_link : t -> int -> int -> bool -> unit
(** Directed link usability between dense indices (set both ways for a
    bidirectional link). *)

(** {2 The hot path} *)

val forward : t -> src:int -> dst_bits:int -> ttl:int -> int
(** Forward one probe (src dense index, destination
    {!Ipv4.addr_to_bits}, TTL) to its terminal fate, mirroring the live
    per-hop order: local delivery, then TTL expiry, then lookup, then
    link liveness.  Returns the packed int [(hops lsl 2) lor fate-code];
    decode with {!result_fate}/{!result_hops}.  Allocates nothing.
    @raise Invalid_argument for a bad [src] index. *)

val result_fate : int -> fate

val result_fate_code : int -> int
(** The raw 0..3 fate code, for counting without constructors. *)

val result_hops : int -> int

val last_path : t -> int array
(** Dense-index path of the most recent {!forward} (copies; diagnostics
    and tests, not the hot path). *)

val pp : Format.formatter -> t -> unit
