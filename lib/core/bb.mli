(** The exact branch-and-bound search behind {!Adversary.exact} and
    [Topology.Adversary.exact].

    [search ~budget ~kernel ~k ~seed ()] explores every k-subset of the
    kernel's units for the one killing the most objects, pruned by the
    smaller of two admissible bounds on what the remaining picks can
    still kill — the degree sum ({!top_degrees}) and Lemma 2's counting
    bound ({!counting_bound}: finisher counts plus pair co-occurrence)
    — and seeded by a caller-supplied incumbent value (normally the
    greedy attack's).  Each first pick runs a strict lexicographic DFS
    on its own kernel copy, through {!Engine.Pool.parallel_map} when a
    pool is given and in order otherwise; all of them share one
    {!Engine.Bound} incumbent and one node budget.

    Determinism contract: the returned [(value, set)] is the maximum
    damage and, among maximizers strictly beating [seed], the
    lexicographically smallest node set — identical at any pool size
    and any schedule.  The shared incumbent is keyed by value and then
    by the lower first pick, so a tying subtree is cut only by an
    earlier first pick's equal value, which wins the merge anyway.
    Without a pool the search is exactly the strict-pruning DFS and
    every count in {!stats} is a pure function of the instance; with a
    pool the explored node set, and with it the counts, depends on
    timing.  On budget exhaustion the search reports the seed
    deterministically ([set = None], [truncated = true]) rather than a
    schedule-dependent best-so-far.  See DESIGN.md §15. *)

type stats = {
  nodes : int;  (** search-tree nodes expanded, the root included *)
  leaves : int;  (** full k-sets evaluated *)
  prunes : int;  (** subtrees cut by the bound *)
  improvements : int;  (** per-first-pick best-so-far improvements at leaves *)
  kernel_updates : int;  (** kernel add/remove ops across all copies *)
}

type result = {
  value : int;
      (** damage of the best set found; [seed] when nothing strictly
          beats it or when truncated *)
  set : int array option;
      (** the winning k-set, ascending; [None] when the caller's seed
          attack stands (not beaten, or truncated) *)
  truncated : bool;  (** the node budget ran out *)
  stats : stats;
}

val top_degrees : degrees:int array -> n:int -> k:int -> int array array
(** [(top_degrees ~degrees ~n ~k).(start).(m)]: the sum of the [m]
    largest entries of [degrees] among units with id >= [start] — one
    of the two optimistic-damage bounds the search prunes with (it
    takes the smaller of this and {!counting_bound}).  One O(n·k) suffix
    sweep; exposed so tests and benches can run frozen reference
    searches against the exact same bound. *)

val counting_bound :
  Kernel.Finishers.t -> pair:int array -> start:int -> m:int -> int
(** [counting_bound fs ~pair ~start ~m]: the sum of the [m] largest
    finisher counts among units >= [start]
    ({!Kernel.Finishers.top_fin}), plus, when s >= 2,
    C(m, 2) · [pair.(start)] with [pair = Kernel.Finishers.pairs fs] —
    an upper bound on the objects that [m] more picks from units
    >= [start] kill beyond [fs]'s current state (Lemma 2's counting
    argument).  The search prunes with [killed] plus the smaller of
    this and {!top_degrees}; exposed so tests can check it against
    brute force. *)

val search :
  ?pool:Engine.Pool.t ->
  budget:int ->
  kernel:Kernel.t ->
  k:int ->
  seed:int ->
  unit ->
  result
(** Run the search.  [kernel] must be all-up (no units failed); it is
    only read ({!Kernel.Finishers.copy} snapshots), never mutated.  The
    pair co-occurrence suffix is built once per search (only when
    k >= 2 and s >= 2).  [seed] is the incumbent damage value to
    strictly beat — the caller keeps the corresponding attack and
    substitutes it when [set = None].  [budget] caps the nodes expanded
    below the root; the root alone is cut when its bound does not beat
    [seed].
    @raise Invalid_argument if [k] is outside [1, units]. *)
