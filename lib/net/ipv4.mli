(** IPv4 addresses and prefixes, plus the sequential subnet allocator used
    for automatic address assignment. *)

type addr

type prefix

val compare_addr : addr -> addr -> int
(** Unsigned comparison. *)

val equal_addr : addr -> addr -> bool

val addr_of_int32 : int32 -> addr

val addr_to_int32 : addr -> int32

val addr_of_octets : int -> int -> int -> int -> addr

val octets : addr -> int * int * int * int

val pp_addr : Format.formatter -> addr -> unit

val addr_to_string : addr -> string

val addr_of_string : string -> addr option

val addr_to_bits : addr -> int
(** The address's 32 bits as a non-negative int (allocation-free: the
    underlying [Int32.to_int] returns an immediate).  The int encoding
    the data-plane fast path forwards instead of boxed addresses. *)

val addr_of_bits : int -> addr
(** Inverse of {!addr_to_bits} (boxes; build/edge use only). *)

val mask_bits : int -> int
(** [mask_bits len] is the network mask of a /len prefix in the
    {!addr_to_bits} int encoding — so prefix membership on the fast path
    is [bits land mask_bits len = addr_to_bits network], with no Int32
    boxing. *)

val prefix : addr -> int -> prefix
(** [prefix a len] normalizes [a] to its network address.
    @raise Invalid_argument if [len] is outside [0..32]. *)

val prefix_len : prefix -> int

val prefix_network : prefix -> addr

val compare_prefix : prefix -> prefix -> int

val equal_prefix : prefix -> prefix -> bool

val hash_prefix : prefix -> int

val mem : addr -> prefix -> bool

val subsumes : outer:prefix -> inner:prefix -> bool
(** [subsumes ~outer ~inner] iff every address of [inner] is in [outer]. *)

val pp_prefix : Format.formatter -> prefix -> unit

val prefix_to_string : prefix -> string

val prefix_of_string : string -> prefix option
(** Accepts ["10.0.0.0/8"] and bare addresses (as /32). *)

val host_count : prefix -> int
(** Usable host addresses (1 for /31 and /32). *)

val nth_host : prefix -> int -> addr
(** [nth_host p n] is the [n]-th address of [p] (0 = network address). *)

val subnets : prefix -> len:int -> prefix list
(** All subnets of [p] with the given longer length. *)

(** Sequential allocator of equal-sized subnets from a pool. *)
module Allocator : sig
  type t

  val create : pool:prefix -> len:int -> t

  val next : t -> prefix
  (** @raise Failure when the pool is exhausted. *)

  val allocated : t -> int

  val capacity : t -> int
end

(** Mutable binary trie keyed on prefix bits, with longest-prefix match:
    the FIB's structure.  Tables that only ever need exact match use
    {!Prefix_table}.  Iteration order is deterministic: exactly
    [compare_prefix] ascending, matching [Prefix_map] folds.  Not
    domain-safe; each trie is owned by one router/component. *)
module Prefix_trie : sig
  type 'a t

  val create : unit -> 'a t

  val size : 'a t -> int
  (** O(1). *)

  val is_empty : 'a t -> bool

  val generation : 'a t -> int
  (** A stamp that moves on every write that can change the trie's
      contents ({!set} of a value not physically equal to the one
      stored, {!remove} of a present prefix, {!clear}).  Equal stamps
      from one trie mean equal contents, so a compiled copy of the trie
      is current while the stamp it was taken at still reads. *)

  val find : prefix -> 'a t -> 'a option
  (** Exact-prefix lookup. *)

  val set : prefix -> 'a -> 'a t -> unit
  (** Insert or replace the entry for exactly this prefix. *)

  val remove : prefix -> 'a t -> unit
  (** No-op when absent; prunes emptied branches. *)

  val lookup : addr -> 'a t -> (prefix * 'a) option
  (** Longest-prefix match for an address. *)

  val lookup_value : addr -> 'a t -> 'a option

  val fold : (prefix -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  (** Ascending [compare_prefix] order, like [Prefix_map.fold]. *)

  val iter : (prefix -> 'a -> unit) -> 'a t -> unit
  (** Ascending [compare_prefix] order. *)

  val entries : 'a t -> (prefix * 'a) list
  (** Ascending [compare_prefix] order. *)

  val clear : 'a t -> unit
end

(** Mutable exact-match table keyed on prefixes: a hash table on a packed
    int encoding of (network, length).  No longest-prefix match — that is
    {!Prefix_trie}'s job.  The ordered traversals ({!fold}, {!iter},
    {!entries}, {!keys}) sort the keys, so they visit prefixes in exactly
    [compare_prefix] ascending order, like [Prefix_map] folds.  Allocates
    nothing until the first {!set}.  Not domain-safe. *)
module Prefix_table : sig
  type 'a t

  val create : unit -> 'a t

  val size : 'a t -> int
  (** O(1). *)

  val is_empty : 'a t -> bool

  val find : prefix -> 'a t -> 'a option

  val mem : prefix -> 'a t -> bool

  val set : prefix -> 'a -> 'a t -> unit
  (** Insert or replace the entry for exactly this prefix. *)

  val remove : prefix -> 'a t -> bool
  (** [true] iff an entry was there (one lookup either way). *)

  val fold : (prefix -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  (** Ascending [compare_prefix] order. *)

  val iter : (prefix -> 'a -> unit) -> 'a t -> unit
  (** Ascending [compare_prefix] order. *)

  val entries : 'a t -> (prefix * 'a) list
  (** Ascending [compare_prefix] order. *)

  val keys : 'a t -> prefix list
  (** Ascending [compare_prefix] order. *)

  val clear : 'a t -> unit
  (** Drops the table's storage too. *)
end

module Prefix_map : Map.S with type key = prefix

module Prefix_set : Set.S with type elt = prefix
