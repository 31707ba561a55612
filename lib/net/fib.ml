(* Longest-prefix-match forwarding table, as a binary trie on address bits.
   Generic in the entry type: legacy routers store next-hop AS decisions,
   SDN switches store flow actions.  Backed by [Ipv4.Prefix_trie]. *)

type 'a t = 'a Ipv4.Prefix_trie.t

let create () = Ipv4.Prefix_trie.create ()

let size = Ipv4.Prefix_trie.size

let generation = Ipv4.Prefix_trie.generation

let insert t prefix value = Ipv4.Prefix_trie.set prefix value t

let find t prefix = Ipv4.Prefix_trie.find prefix t

let remove t prefix = Ipv4.Prefix_trie.remove prefix t

let lookup t addr = Ipv4.Prefix_trie.lookup addr t

let lookup_value t addr = Ipv4.Prefix_trie.lookup_value addr t

let entries t = Ipv4.Prefix_trie.entries t

let clear = Ipv4.Prefix_trie.clear

let iter t f = Ipv4.Prefix_trie.iter f t
