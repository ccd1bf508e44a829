(** Failure scenarios: who fails, and how it is decided.

    The paper's adversary is {!Adversarial}; the others exist for the
    example applications and ablation studies (random failures are the
    model of the prior work the paper contrasts with, rack and domain
    failures the correlated-failure patterns of data centers). *)

type t =
  | Adversarial of int  (** worst-case choice of k nodes (Definition 1) *)
  | Random_nodes of int  (** k nodes, uniformly at random *)
  | Random_racks of int  (** j racks, uniformly at random *)
  | Domain_failure of int * int
      (** [Domain_failure (level, j)]: worst-case choice of [j] domains
          at [level] of the cluster's topology
          ({!Topology.Adversary}) *)
  | Explicit of int array  (** a fixed node set *)

val describe : t -> string

val events : rng:Combin.Rng.t -> Cluster.t -> t -> Event.t list * int array
(** Lower the scenario onto the unified {!Event} stream against the
    cluster's current state: recoveries for whatever is down now, then
    the selected failures.  Returns the stream and the selected nodes
    (sorted); applying the stream via {!Cluster.apply_event} is
    byte-identical to {!apply} (selection reads only the layout,
    topology and rng — never the up/down state). *)

val apply : rng:Combin.Rng.t -> Cluster.t -> t -> int array
(** Apply the scenario to a (fully recovered) cluster: fails the selected
    nodes and returns them (sorted).  The adversarial scenarios use
    {!Placement.Adversary.exact} / {!Topology.Adversary.exact} against
    the cluster's layout and fatality threshold; rack scenarios draw
    their domains from the cluster's topology. *)

val run : rng:Combin.Rng.t -> Cluster.t -> t -> int
(** [apply] then report {!Cluster.available_objects}; the cluster is
    recovered before and left failed after (read results, then
    {!Cluster.recover_all}). *)
