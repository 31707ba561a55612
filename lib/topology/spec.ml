(* Declarative description of an experiment topology: ASes, inter-AS links
   and their business relationships, plus which ASes are SDN-controlled.
   Generators and dataset loaders produce specs; framework.Builder turns a
   spec into a running emulation. *)

type role = Legacy | Sdn

(* Relationship of link endpoint [a] towards endpoint [b]. *)
type rel =
  | C2p (* a is customer of b *)
  | P2p (* settlement-free peers *)
  | S2s (* siblings: mutual full transit *)
  | Open (* no policy: full propagation; used for clique experiments *)

type node_spec = { asn : Net.Asn.t; role : role; name : string }

type link_spec = { a : Net.Asn.t; b : Net.Asn.t; rel : rel; delay_us : int option }

(* The indexes are built eagerly by [make]/[with_sdn] and never written
   afterwards: specs are shared read-only across [Pool] domains.
   [adjacent] holds each AS's links in spec order (peer-add order, and so
   RNG splits, follow it); [between] maps both (a, b) and (b, a). *)
type t = {
  title : string;
  nodes : node_spec list;
  links : link_spec list;
  by_asn : node_spec Net.Asn.Map.t;
  adjacent : link_spec list Net.Asn.Map.t;
  between : (Net.Asn.t * Net.Asn.t, link_spec) Hashtbl.t;
}

let rel_to_string = function
  | C2p -> "c2p"
  | P2p -> "p2p"
  | S2s -> "s2s"
  | Open -> "open"

let rel_of_string = function
  | "c2p" -> Some C2p
  | "p2p" -> Some P2p
  | "s2s" -> Some S2s
  | "open" -> Some Open
  | _ -> None

let role_to_string = function Legacy -> "legacy" | Sdn -> "sdn"

let node ?(role = Legacy) ?name asn =
  let name = match name with Some n -> n | None -> Net.Asn.to_string asn in
  { asn; role; name }

let link ?(rel = Open) ?delay_us a b = { a; b; rel; delay_us }

(* The first node of an ASN wins, as a list scan would find it. *)
let index_nodes nodes =
  List.fold_left
    (fun m n -> if Net.Asn.Map.mem n.asn m then m else Net.Asn.Map.add n.asn n m)
    Net.Asn.Map.empty nodes

let index_links links =
  let add asn l m =
    Net.Asn.Map.update asn (fun ls -> Some (l :: Option.value ls ~default:[])) m
  in
  List.fold_left
    (fun m l -> if Net.Asn.equal l.a l.b then add l.a l m else add l.b l (add l.a l m))
    Net.Asn.Map.empty (List.rev links)

let make ~title ~nodes ~links =
  let between = Hashtbl.create (2 * List.length links) in
  List.iter
    (fun l ->
      Hashtbl.replace between (l.a, l.b) l;
      Hashtbl.replace between (l.b, l.a) l)
    links;
  { title; nodes; links; by_asn = index_nodes nodes; adjacent = index_links links; between }

let title t = t.title

let nodes t = t.nodes

let links t = t.links

let asns t = List.map (fun n -> n.asn) t.nodes

let node_count t = List.length t.nodes

let link_count t = List.length t.links

let find_node t asn = Net.Asn.Map.find_opt asn t.by_asn

let mem t asn = Net.Asn.Map.mem asn t.by_asn

let sdn_asns t = List.filter_map (fun n -> if n.role = Sdn then Some n.asn else None) t.nodes

let legacy_asns t =
  List.filter_map (fun n -> if n.role = Legacy then Some n.asn else None) t.nodes

let role_of t asn =
  match find_node t asn with
  | Some n -> n.role
  | None -> invalid_arg (Fmt.str "Spec.role_of: unknown %a" Net.Asn.pp asn)

(* Mark the given ASes as SDN-controlled, all others legacy. *)
let with_sdn t sdn =
  List.iter
    (fun asn ->
      if not (mem t asn) then invalid_arg (Fmt.str "Spec.with_sdn: unknown %a" Net.Asn.pp asn))
    sdn;
  let sdn = Net.Asn.Set.of_list sdn in
  let role asn = if Net.Asn.Set.mem asn sdn then Sdn else Legacy in
  let nodes = List.map (fun n -> { n with role = role n.asn }) t.nodes in
  { t with nodes; by_asn = index_nodes nodes }

let links_of t asn = Option.value (Net.Asn.Map.find_opt asn t.adjacent) ~default:[]

let link_between t a b = Hashtbl.find_opt t.between (a, b)

let neighbors t asn =
  List.map (fun l -> if Net.Asn.equal l.a asn then l.b else l.a) (links_of t asn)

(* Relationship of [asn]'s link partner towards [asn]: if the link says
   [a C2p b] then, seen from [a], the neighbor [b] is a Provider. *)
type neighbor_role = Customer | Provider | Peer | Sibling | Unrestricted

let neighbor_role_to_string = function
  | Customer -> "customer"
  | Provider -> "provider"
  | Peer -> "peer"
  | Sibling -> "sibling"
  | Unrestricted -> "unrestricted"

let neighbor_role_of_link ~me l =
  if Net.Asn.equal l.a me then
    match l.rel with
    | C2p -> Provider (* I am the customer; my neighbor is my provider *)
    | P2p -> Peer
    | S2s -> Sibling
    | Open -> Unrestricted
  else if Net.Asn.equal l.b me then
    match l.rel with
    | C2p -> Customer
    | P2p -> Peer
    | S2s -> Sibling
    | Open -> Unrestricted
  else invalid_arg "Spec.neighbor_role_of_link: AS not on link"

(* Structural validity: referenced ASes exist, no duplicate ASNs or links,
   no self-links.  Returns human-readable problems, empty when valid. *)
let validate t =
  let problems = ref [] in
  let problem fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n.asn then problem "duplicate node %a" Net.Asn.pp n.asn
      else Hashtbl.replace seen n.asn ())
    t.nodes;
  let pairs = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Net.Asn.equal l.a l.b then problem "self-link on %a" Net.Asn.pp l.a;
      if not (Hashtbl.mem seen l.a) then problem "link references unknown %a" Net.Asn.pp l.a;
      if not (Hashtbl.mem seen l.b) then problem "link references unknown %a" Net.Asn.pp l.b;
      let key =
        if Net.Asn.compare l.a l.b <= 0 then (l.a, l.b) else (l.b, l.a)
      in
      if Hashtbl.mem pairs key then
        problem "duplicate link %a<->%a" Net.Asn.pp l.a Net.Asn.pp l.b
      else Hashtbl.replace pairs key ())
    t.links;
  List.rev !problems

let is_valid t = validate t = []

(* Undirected AS-level graph of the spec (node ids are raw ASN ints). *)
let to_graph t =
  let g = Net.Graph.create () in
  List.iter (fun n -> Net.Graph.add_node g (Net.Asn.to_int n.asn)) t.nodes;
  List.iter
    (fun l -> Net.Graph.add_edge g (Net.Asn.to_int l.a) (Net.Asn.to_int l.b))
    t.links;
  g

let is_connected t = Net.Graph.is_connected (to_graph t)

let pp ppf t =
  Fmt.pf ppf "@[<v>topology %S: %d ASes (%d SDN), %d links" t.title (node_count t)
    (List.length (sdn_asns t))
    (link_count t);
  List.iter
    (fun l ->
      Fmt.pf ppf "@,  %a -[%s]- %a" Net.Asn.pp l.a (rel_to_string l.rel) Net.Asn.pp l.b)
    t.links;
  Fmt.pf ppf "@]"
