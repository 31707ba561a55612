(** Visualization: Graphviz export of the experiment component graph
    (Fig. 1 equivalent), ASCII boxplots for sweeps, route-change
    timelines. *)

val spec_to_dot : ?with_infrastructure:bool -> Topology.Spec.t -> string
(** Dot source: SDN members as boxes, relationship-styled AS links, and
    (unless disabled) the collector and controller/speaker with their
    monitoring/control edges. *)

val series_to_ascii : ?width:int -> Experiments.series -> string
(** One boxplot row per sweep point over a shared scale. *)

val timeline : Convergence.history -> Net.Ipv4.prefix -> string
(** Rendered route-change history for a prefix, one change per line. *)
