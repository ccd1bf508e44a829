(** Online (adaptive) Combo placement — the paper's future-work item.

    Sec. IV-D notes that Combo "requires estimates of the number b of
    objects" and that "an algorithm to adapt our placements as new
    objects come and go would be an interesting advance; we leave
    investigation of such an algorithm to future work."  This module
    supplies one:

    - each overlap level x keeps its design's blocks with per-block
      usage counts; the {e effective} λx is μx · (maximum block usage),
      which bounds the Definition-2 overlap of the live placement, so
      Lemma 3's availability bound applies at every instant;
    - a new object is routed to the level whose effective λ grows the
      least (ties: the emptier level), so λ only grows when a level is
      saturated.  Within a level it goes to the newest open block (one
      whose last occupy or vacate left it below the level's maximum
      usage) still below the maximum, else a fresh lazy block, else the
      lowest-index eligible block below the maximum, else (the level is
      saturated) the lowest-index eligible block; an empty level takes
      the lowest-index eligible block, else a lazy one.  The open
      blocks form a move-to-front list with at most one entry per
      block, and the lowest-index picks are queries on a per-level
      min-index over 64-block chunks, O(log blocks) each, so a create
      costs O(log blocks) amortized, independent of the population;
    - removing an object frees its block slot for reuse.

    A fixed design's blocks stream from its registry entry straight into
    the level's int32 block plane, with no boxed design in between.  A
    node's blocks are found through a node → blocks index built on the
    level's first {!retire_node} or {!unretire_node} (and rebuilt once
    the lazy level has grown past it), so membership changes cost the
    node's blocks, not the design.

    The complete (x = r−1) level generates fresh r-subsets lazily, so
    arbitrarily many objects are always placeable.  {!lower_bound} is the
    live Lemma-3 guarantee; {!optimal_bound} re-runs the offline DP at
    the current population for comparison (the "cost of being online"). *)

type t

val create :
  ?levels:Combo.level array -> n:int -> r:int -> s:int -> k:int -> unit -> t
(** Levels default to {!Combo.default_levels} restricted to materializable
    designs.  @raise Invalid_argument if no level is usable. *)

val n : t -> int
val r : t -> int
val s : t -> int
val size : t -> int
(** Current number of live objects. *)

val add : t -> int
(** Place a new object; returns its id (ids are never reused). *)

val peek : t -> int array
(** The replica set the next {!add} would be assigned, sorted, without
    committing anything: [add] and [peek] share one pure slot chooser,
    which [add] commits and [peek] only reads — so [peek t] followed by
    [add t] assigns exactly the peeked nodes, and a peek never perturbs
    where later objects land.
    Advisory routing for {!Dsim.Api}'s [advise create].
    @raise Invalid_argument when no level is usable (the same condition
    under which {!add} raises). *)

val add_many : t -> int -> int list

val remove : t -> int -> unit
(** @raise Not_found if the id is not live. *)

val replace : t -> int -> unit
(** Re-route a live object to a fresh block chosen by the usual routing
    rule, keeping its id.  Used when the object's current block was
    blocked by {!retire_node}.  The destination is chosen {e before} the
    old slot is released, so a routing failure ([Invalid_argument], no
    usable level) leaves the placement untouched.
    @raise Not_found if the id is not live. *)

val retire_node : t -> int -> unit
(** Permanently retire a node: every block containing it becomes
    ineligible for placement.  The live objects with a replica on the
    node now sit on blocked blocks; the caller — which already knows
    them ({!Dsim.Churn} reads them off {!Kernel.Dyn.row}) — must
    {!replace} (or {!remove}) each of them to restore the invariant that
    blocked blocks hold no objects.  @raise Invalid_argument if the node
    is out of range or already retired.  Costs the node's blocks, plus
    one counting sort over each level's blocks when its node → blocks
    index is first needed or the lazy level has grown since. *)

val unretire_node : t -> int -> unit
(** Undo {!retire_node} (node re-joins): blocks containing no other
    retired node become eligible again, at the same cost as
    {!retire_node}.  @raise Invalid_argument if the node is out of range
    or not retired. *)

val retired : t -> int -> bool
(** Whether a node is currently retired — the one record of cluster
    membership. *)

val retired_count : t -> int
(** Nodes currently retired, O(1). *)

val has_capacity : t -> bool
(** Some level can still accept an object (an eligible block exists or
    can be generated).  When false, {!add} and {!replace} raise. *)

val replica_set : t -> int -> int array
(** The nodes hosting a live object's replicas.
    @raise Not_found if the id is not live. *)

val level_of : t -> int -> int
(** Which overlap level x a live object was placed at. *)

val lambdas : t -> int array
(** Effective λx per level (0 = unused). *)

val lower_bound : ?k:int -> t -> int
(** Lemma 3 on the live placement: size − Σx ⌊λx C(k,x+1)/C(s,x+1)⌋,
    clamped at 0.  [k] defaults to the configured k. *)

val optimal_bound : ?k:int -> t -> int
(** The offline DP's bound for the current population size — what a
    from-scratch Combo placement would guarantee. *)

val layout : t -> Layout.t
(** Snapshot of the live objects (in increasing id order). *)

val check_invariants : t -> unit
(** Internal-consistency check (usage counts vs live assignments, λ
    bookkeeping, every block's members in range and distinct, the
    min-index against a recount and a naive scan, the open list's links
    in both directions with no block listed twice, and, where a level's
    node → blocks index is built, each node's list against the blocks
    it covers); raises [Failure] on violation.  O(blocks + live
    objects).  Test-suite hook. *)
