(** Longest-prefix-match forwarding table (binary trie), generic in the
    entry type.  The live per-packet path looks it up directly; the data
    plane compiles it into a flat table ({!Dataplane.fib_table}) once per
    {!generation}. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val generation : 'a t -> int
(** Moves on every write that can change the table (see
    {!Ipv4.Prefix_trie.generation}): {!insert}, {!remove}, {!clear}.  A
    compiled copy taken at a generation stays exact while the table
    still reports it. *)

val insert : 'a t -> Ipv4.prefix -> 'a -> unit
(** Replaces any existing entry for exactly this prefix. *)

val find : 'a t -> Ipv4.prefix -> 'a option
(** Exact-prefix lookup. *)

val remove : 'a t -> Ipv4.prefix -> unit

val lookup : 'a t -> Ipv4.addr -> (Ipv4.prefix * 'a) option
(** Longest-prefix match for an address. *)

val lookup_value : 'a t -> Ipv4.addr -> 'a option

val entries : 'a t -> (Ipv4.prefix * 'a) list
(** Sorted by prefix. *)

val clear : 'a t -> unit

val iter : 'a t -> (Ipv4.prefix -> 'a -> unit) -> unit
