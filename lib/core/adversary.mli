(** The worst-case adversary of Definition 1: given full knowledge of the
    placement, choose k nodes to fail so as to fail as many objects as
    possible (an object fails when ≥ s of its replicas are on failed
    nodes).

    Finding the true optimum is a coverage-maximization problem; we
    answer it with one exact branch-and-bound under a node budget,
    seeded by the exact-score greedy, which is also the fallback when
    the budget runs out (see DESIGN.md §3 on how this substitutes for
    the paper's unspecified "simulating the worst k failures").

    The search itself is unit-level: {!search_greedy} and
    {!search_exact} run over any all-up {!Kernel.t}, whose units are
    nodes here and same-level fault domains in [Topology.Adversary] —
    one search, two telemetry prefixes ({!metrics}).

    The exact search accepts an optional {!Engine.Pool}: the
    branch-and-bound ({!Bb}, DESIGN.md §15) parallelizes over first
    picks.  Results are bit-identical with and without a pool, at any
    pool size — parallelism only changes wall-clock (see DESIGN.md §2,
    "parallelism & determinism"). *)

type attack = {
  failed_nodes : int array;  (** the chosen K, sorted, |K| = k *)
  failed_objects : int;  (** objects with ≥ s replicas in K *)
  exact : bool;  (** true if produced by exhaustive/B&B search *)
}

type metrics
(** The search counters of one adversary, under one path prefix. *)

val metrics : string -> metrics
(** Registers (or finds) the [greedy/*], [kernel/*] and [bb/*] search
    counters and the [attack] span under a prefix; the node
    adversary's is ["core/adversary"]. *)

type search = {
  units : int array;  (** the chosen units, ascending *)
  killed : int;  (** objects with ≥ s replicas on them *)
  optimal : bool;  (** proved optimal by branch-and-bound *)
}

val search_greedy : metrics -> Kernel.t -> k:int -> search
(** {!Kernel.select_greedy} for [k] picks on the given kernel (left
    with the picks applied); [optimal = false].  Its work count lands
    in [greedy/marginal_evals]. *)

val search_exact :
  ?budget:int -> ?pool:Engine.Pool.t -> metrics -> Kernel.t -> k:int -> search
(** Branch-and-bound over every k-subset of the all-up kernel's units
    (left untouched), pruned by the smaller of the degree-sum bound and
    Lemma 2's counting bound ({!Bb.counting_bound}), seeded
    with {!search_greedy} on a copy ({!Bb}): one strict lexicographic
    DFS per first pick, on the [pool] when given, under ONE node budget
    (default 50 million).  When a set strictly beats greedy, the result
    is the lexicographically smallest optimum, at any [pool] size.  If
    the budget runs out the result falls back to the greedy search with
    [optimal = false] — deterministically, since any "best so far" on a
    pool would be schedule-dependent — and a warning is logged (source
    ["placement.adversary"]), so callers can tell a heuristic answer
    from an exact one.  The whole search runs under the
    [<prefix>/attack] span.  [k = 0] is the empty set. *)

val eval : Layout.t -> s:int -> int array -> int
(** Number of objects failed by a given node set: a one-shot O(b·r)
    merge pass ({!Layout.failed_objects}) with no kernel construction.
    Callers that score many sets over one layout should hold a
    {!Kernel.t} and use {!Kernel.check} instead. *)

val exact :
  ?budget:int -> ?pool:Engine.Pool.t -> Layout.t -> s:int -> k:int -> attack
(** {!search_exact} over the layout's nodes.
    @raise Invalid_argument when [k >= n]. *)

val greedy : Layout.t -> s:int -> k:int -> attack
(** {!search_greedy} over the layout's nodes: add the node with the best
    marginal damage k times; ties broken by progress toward failing
    objects, then by lowest node id — a full rescan's picks, from one
    marginal per node plus exact score updates per pick. *)

val avail : Layout.t -> s:int -> attack -> int
(** [b - attack.failed_objects]: Avail(π) of Def. 1 (an upper bound on
    it when [attack.exact] is false). *)
