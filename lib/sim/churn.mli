(** The continuous placement engine: a live {!Placement.Adaptive}
    placement and an incremental {!Placement.Kernel.Dyn} worst-case
    kernel, advanced together one {!Event.t} at a time (DESIGN.md §12).

    Each fact has one owner and every other view is derived from it:
    which nodes are down is the kernel's failed set, which nodes have
    left is the placement's retirement set, and the objects on a node
    are the kernel's per-node row.

    Where {!Cluster} replays infrastructure events against a fixed
    layout, this engine also consumes the object-churn events: an
    [Object_create] routes the new object through the adaptive Combo
    placement (moving exactly r replicas — the bounded-data-movement
    contract: no event ever relocates an existing object) and registers
    it with the kernel in O(r); an [Object_delete] retires it in O(r).
    After every event the engine can report the live Lemma-3
    {!lower_bound} and re-run the lazy-greedy adversary incrementally
    ({!rescore}) without rebuilding any state — bit-identical to a
    from-scratch {!Placement.Kernel} evaluation, which {!check}
    verifies.

    Determinism: the engine never consults a pool or the clock; a
    replay of the same event stream is bit-identical at any [-j]. *)

type t

type step = {
  seq : int;  (** 1-based event sequence number *)
  event : Event.t;
  moved : int;
      (** replicas moved by this event: r on create, at most
          r · load(nd) on a leave of node nd (each of its load(nd)
          evicted objects re-placed wholesale), 0 otherwise *)
  live : int;  (** live objects after the event *)
  available : int;  (** live objects not killed by the current outages *)
  failed_nodes : int;
  lower_bound : int;  (** the live Lemma-3 guarantee *)
}

type rescore = {
  attack : int array;  (** the k greedy picks, in pick order *)
  worst_available : int;
      (** objects surviving that attack on the current population *)
}

val create :
  ?levels:Placement.Combo.level array ->
  ?topology:Topology.Tree.t ->
  n:int ->
  r:int ->
  s:int ->
  k:int ->
  unit ->
  t
(** An empty engine over [n] nodes, all up.  [topology] (default
    {!Topology.Build.flat}) resolves [Domain_fail] events.
    @raise Invalid_argument on a node-count mismatch or unusable
    parameters. *)

val n : t -> int
val r : t -> int
val s : t -> int
val k : t -> int
val topology : t -> Topology.Tree.t

val live : t -> int
(** Live objects. *)

val events : t -> int
(** Events applied so far. *)

val moved_replicas : t -> int
(** Total replicas moved over the engine's lifetime. *)

val node_up : t -> int -> bool
(** Not in the kernel's failed set. *)

val failed_nodes : t -> int array
(** The down nodes, sorted. *)

val failed_count : t -> int
(** How many nodes are down, O(1). *)

val node_in_service : t -> int -> bool
(** False once the node has permanently left (until a re-join): the
    placement's retirement flag. *)

val nodes_in_service : t -> int
(** Nodes that have not left, O(1). *)

val node_load : t -> int -> int
(** Live objects with a replica on the node — the movement budget a
    leave of that node may spend. *)

val available : t -> int
(** Live objects not killed by the current outages (incremental). *)

val lower_bound : ?k:int -> t -> int
(** The live Lemma-3 guarantee against [k] failures (default: the
    engine's k). *)

val layout : t -> Placement.Layout.t
(** Snapshot of the live placement (increasing object-id order). *)

val apply : t -> Event.t -> step
(** Advance by one event.  Node failures/recoveries are idempotent
    (mirroring {!Cluster}); [Measure] changes nothing and exists so
    callers can snapshot at the producer's chosen points.

    [Node_leave nd] is a permanent departure with bounded-movement
    re-replication: the node's placement blocks are blocked, the
    load(nd) objects hosting a replica there — read off the kernel's
    row for nd, and nothing else — are each re-placed wholesale by the
    adaptive routing rule in increasing id order (≤ r replicas shipped
    per object), and a down leaver stops counting as failed.
    If the placement has no capacity left for the relocations the event
    raises and changes nothing.  [Node_join nd] re-admits a node that
    left (it returns up, hosting nothing).  A left node cannot fail or
    recover, and is skipped by [Domain_fail]'s blast radius.

    @raise Invalid_argument on an out-of-range node/domain, an unknown
    object id, a leave/fail/recover of a left node, or a join of an
    in-service node — one actionable sentence, surfaced verbatim by the
    CLI. *)

val advise_create : t -> int array
(** The sorted replica set the next [Object_create] would be assigned,
    without committing anything — {!Placement.Adaptive.peek} under the
    engine's live state, so an advise followed by a create places the
    object on exactly the advised nodes.  @raise Invalid_argument when
    the placement has no capacity (the condition under which the create
    itself would be rejected). *)

val rescore : ?k:int -> t -> rescore
(** Re-run the worst-case adversary on the current population without
    rebuilding: {!Placement.Kernel.Dyn.worst_case}, the exact-score
    greedy over the dynamic kernel, attacking from all-up.  [k]
    (default: the configured budget) is the attack size — online
    queries may probe any k.  Picks and damage are bit-identical to
    {!Placement.Kernel.select_greedy} on a freshly built kernel over
    {!layout}. *)

val check : t -> unit
(** The incremental ≡ from-scratch oracle: recounts the dynamic
    kernel's hit plane, re-checks the adaptive invariants, and compares
    availability against a fresh flat {!Placement.Kernel} built from
    {!layout}, and the adversary's picks and damage against a full
    rescan of {!Placement.Kernel.marginal} on it.  [Failure] on any
    divergence.  O(b·r + k·n·load) — test-suite and gate hook. *)
