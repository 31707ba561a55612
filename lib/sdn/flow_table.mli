(** A switch's flow table: highest priority wins, then longest prefix.
    The live per-packet path scans it; the data plane compiles it
    ({!Net.Dataplane.rule_table}) once per {!generation}. *)

type t

val create : ?metrics:Engine.Metrics.t -> ?labels:Engine.Metrics.labels -> unit -> t
(** When [metrics] is given, misses are exported as
    [sdn_flow_table_misses_total] and occupancy as the [sdn_flow_table_rules]
    gauge, both carrying [labels]. *)

val rules : t -> Flow.rule list

val size : t -> int

val misses : t -> int
(** Lookups that matched no rule. *)

val generation : t -> int
(** Moves on every change to the installed rules: {!add} (a same-match
    replacement in place included), {!delete}, {!delete_exact} and
    {!remove_physical} when they remove a rule, and {!clear}.  A
    compiled copy taken at a generation stays exact while the table
    still reports it.  Lookups never move it. *)

val add : t -> Flow.rule -> unit
(** Add-or-replace on the (match, priority) key. *)

val delete : t -> match_prefix:Net.Ipv4.prefix -> unit
(** Delete all rules matching exactly this prefix (any priority). *)

val delete_exact : t -> Flow.rule -> unit

val remove_physical : t -> Flow.rule -> bool
(** Remove exactly this rule record (physical identity); [false] when it
    was not installed.  Timeout expiry uses this so a later same-key
    replacement is never removed by the old rule's timer. *)

val mem_physical : t -> Flow.rule -> bool

val clear : t -> unit

val lookup : t -> Net.Ipv4.addr -> Flow.rule option
(** Winning rule for the address ({!lookup_idx}'s scan); bumps its
    packet counter, or the table's miss counter on a miss. *)

val lookup_idx : t -> int -> int
(** [lookup_idx t bits] is the index (into the sorted rule array, see
    {!nth_rule}) of the winning rule for an address given as
    {!Net.Ipv4.addr_to_bits} int bits, or [-1] on a miss.  Unlike
    {!lookup} it allocates nothing and mutates nothing — no [option]
    boxing, no packet/miss counters — so read-only consumers (a
    benchmark timing the switch layer) can use it without perturbing
    table state.  The data plane does not scan: it compiles the table
    ({!Net.Dataplane.rule_table}). *)

val nth_rule : t -> int -> Flow.rule
(** The rule at a {!lookup_idx} index.  @raise Invalid_argument when out
    of bounds (including [-1]). *)

val find : t -> match_prefix:Net.Ipv4.prefix -> Flow.rule option

val entries_sorted : t -> Flow.rule list

val pp : Format.formatter -> t -> unit
