(** Relationship-based (Gao–Rexford) BGP policy templates. *)

type relationship = Customer | Provider | Peer | Sibling | Unrestricted

val relationship_to_string : relationship -> string

val default_local_pref : relationship -> int
(** Customer 130 > Sibling 120 > Peer 110 > Unrestricted 100 > Provider 90. *)

type t

val make :
  ?local_pref:int ->
  ?import_prefix_filter:(Net.Ipv4.prefix -> bool) ->
  ?export_prefix_filter:(Net.Ipv4.prefix -> bool) ->
  ?import_community:Community.t ->
  ?export_prepend:int ->
  relationship ->
  t
(** [export_prepend] adds that many extra own-ASN prepends toward the
    neighbor — the standard inbound traffic-engineering knob. *)

val relationship : t -> relationship

val local_pref : t -> int

val export_prepend : t -> int

val import : t -> me:Net.Asn.t -> prefix:Net.Ipv4.prefix -> Attrs.t -> Attrs.t option
(** Import processing: AS-path loop check, prefix filter, NO_ADVERTISE,
    local-pref stamping, provenance community.  [None] = rejected. *)

type route_provenance = From of relationship | Originated

val export_allowed : to_rel:relationship -> provenance:route_provenance -> bool
(** The valley-free export predicate. *)

val may_export :
  t -> provenance:route_provenance -> prefix:Net.Ipv4.prefix -> communities:Community.Set.t -> bool
(** Export check toward a neighbor governed by [t]: prefix filter,
    NO_EXPORT/NO_ADVERTISE in the route's [communities], valley-free rule.
    Nothing it reads is changed by export, so it runs before the exported
    attrs are built ({!Attrs.export}). *)

val pp : Format.formatter -> t -> unit
