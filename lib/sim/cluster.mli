(** Mutable cluster state: a placement plus the up/down status of every
    node, with incremental tracking of per-object replica losses.

    This is the executable model behind the examples and the empirical
    experiments: fail nodes (by choice, at random, or adversarially),
    observe which objects remain available under a given access
    semantics, recover, repeat.

    Every cluster carries a {!Topology.Tree} of fault domains (by
    default {!Topology.Build.flat}, one domain per node); racks given as
    a node -> rack-id array are {!Topology.Build.of_racks}. *)

type t

val create :
  ?topology:Topology.Tree.t -> Placement.Layout.t -> Semantics.t -> t
(** [create layout sem] starts with all nodes up.  [topology] installs a
    fault-domain tree for correlated failures (its first level above the
    nodes acts as the rack level).
    @raise Invalid_argument if the tree's node count differs from the
    layout's. *)

val layout : t -> Placement.Layout.t
val semantics : t -> Semantics.t
val fatality_threshold : t -> int

val n : t -> int
val b : t -> int

val topology : t -> Topology.Tree.t
(** The cluster's fault-domain tree. *)

val rack_level : t -> int
(** The tree level acting as "racks": the first level above the nodes
    (the node level itself on a depth-1 tree). *)

val node_up : t -> int -> bool
val failed_nodes : t -> int array
(** Sorted list of currently failed nodes. *)

val fail_node : t -> int -> unit
(** Idempotent. *)

val recover_node : t -> int -> unit
(** Idempotent. *)

val fail_domain : t -> level:int -> int -> unit
(** Fail every node of a domain of the topology. *)

val apply_event : t -> Event.t -> unit
(** Consume one unified event ({!Event.t}): node failures/recoveries
    and domain failures route to the operations above, [Measure] is a
    no-op (callers read {!available_objects} around it).
    @raise Invalid_argument on object churn events: a cluster's layout
    is fixed, use {!Churn} for the object-churn regime. *)

val recover_all : t -> unit

val object_available : t -> int -> bool
(** Whether object [obj] still has enough live replicas. *)

val available_objects : t -> int
(** Count of available objects — Avail of the current failure set. *)

val unavailable_objects : t -> int list
(** Ids of failed objects (ascending). *)

val live_replicas : t -> int -> int
(** Live replica count of an object. *)
