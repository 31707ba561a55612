(* Reading counters out of an [Engine.Metrics] snapshot.

   [Metrics.value] looks a series up by exact (name, labels), so a
   labelled family such as [bgp_updates_received_total{node=...}] reads
   as [None] when asked for by name alone.  The benchmark sums a family
   over all its label sets instead, and keeps "no such series" apart
   from a measured zero: an absent series is [None], never [0]. *)

let scalar (v : Engine.Metrics.value) =
  match v with
  | Engine.Metrics.Counter_v n -> float_of_int n
  | Engine.Metrics.Gauge_v g -> g
  | Engine.Metrics.Histogram_v h -> float_of_int h.Engine.Metrics.count

(* Sum of every sample named [name] whose labels include all of
   [labels]; [None] when no sample matches. *)
let sum ?(labels = []) (snap : Engine.Metrics.snapshot) name =
  let matches (s : Engine.Metrics.sample) =
    String.equal s.name name
    && List.for_all (fun (k, v) -> List.assoc_opt k s.labels = Some v) labels
  in
  List.fold_left
    (fun acc (s : Engine.Metrics.sample) ->
      if matches s then Some (Option.value acc ~default:0.0 +. scalar s.value) else acc)
    None snap.samples

(* Growth of a family between two snapshots of the same registry.  A
   series absent from [before] but present in [after] was registered in
   between, so it grew from zero. *)
let delta ?labels ~before ~after name =
  match sum ?labels after name with
  | None -> None
  | Some a -> Some (a -. Option.value (sum ?labels before name) ~default:0.0)
