(** The work-stealing sharded branch-and-bound frontier behind
    {!Adversary.exact} and [Topology.Adversary.exact].

    [search ~budget ~kernel ~k ~seed ()] explores every k-subset of the
    kernel's units for the one killing the most objects, pruned by the
    smaller of two admissible bounds on what the remaining picks can
    still kill — the degree sum ({!top_degrees}) and Lemma 2's counting
    bound ({!counting_bound}: finisher counts plus pair co-occurrence)
    — and seeded by a caller-supplied incumbent value
    (normally the greedy attack's).  A deterministic sequential spawn
    phase cuts the tree at a spawn depth that is a pure function of the
    instance; the surviving prefixes become tasks drained through
    {!Engine.Pool.parallel_steal} with per-worker kernel scratch
    (prefix-diff retargeting, no per-task plane copies) under ONE global
    node budget drawn in blocks — no static per-branch split, so heavy
    subtrees inherit whatever finished siblings left.

    Determinism contract: the returned [(value, set)] is the maximum
    damage and, among maximizers strictly beating [seed], the
    lexicographically smallest node set — identical at any pool size and
    any schedule, and equal to the sequential reference
    ([~spawn_depth:k]), even though the SET OF NODES EXPLORED (and hence
    every count in {!stats} except [spawn_depth] and [spawned_tasks])
    is timing-dependent under the shared {!Engine.Bound} incumbent.
    On budget exhaustion the search reports the seed deterministically
    ([set = None], [truncated = true]) rather than a schedule-dependent
    best-so-far.  See DESIGN.md §15 for the full argument. *)

type stats = {
  spawn_depth : int;  (** depth of the task cut — Stable (pure fn of instance) *)
  spawned_tasks : int;  (** tasks emitted by the spawn phase — Stable *)
  nodes : int;  (** search-tree nodes expanded (spawn + tasks) — Volatile *)
  leaves : int;  (** full k-sets evaluated — Volatile *)
  prunes : int;  (** subtrees cut by the bound — Volatile *)
  improvements : int;  (** strict best-so-far improvements at leaves — Volatile *)
  completions : int;  (** greedy completion probes run — Volatile *)
  bound_publications : int;
      (** successful shared-incumbent raises (leaves + probes) — Volatile *)
  steals : int;  (** tasks taken from another slot's deque — Volatile *)
  kernel_updates : int;  (** kernel add/remove ops across all scratch — Volatile *)
  undos : int;  (** B&B backtrack removes — Volatile *)
  max_undo_depth : int;  (** deepest backtrack — Volatile *)
}

type result = {
  value : int;
      (** damage of the best set found; [seed] when nothing strictly
          beats it or when truncated *)
  set : int array option;
      (** the winning k-set, ascending; [None] when the caller's seed
          attack stands (not beaten, or truncated) *)
  truncated : bool;  (** the global node budget ran out *)
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

val default_spawn_depth : n:int -> k:int -> int
(** The spawn depth [search] uses when none is forced: the smallest
    depth whose full prefix count C(n, d) reaches a fixed task target,
    capped at [k].  Exposed for tests and benches. *)

val search :
  ?pool:Engine.Pool.t ->
  ?spawn_depth:int ->
  budget:int ->
  kernel:Kernel.t ->
  k:int ->
  seed:int ->
  unit ->
  result
(** Run the frontier.  [kernel] must be all-up (no units failed); it is
    only read ({!Kernel.Finishers.copy} snapshots), never mutated.  Each
    kernel copy the search owns keeps its finisher counts exact through
    {!Kernel.Finishers}; the pair co-occurrence suffix is built once per
    search (only when k >= 2 and s >= 2).  [seed] is the
    incumbent damage value to strictly beat — the caller keeps the
    corresponding attack and substitutes it when [set = None].
    [spawn_depth] is clamped to [1, k]; [~spawn_depth:k] runs the whole
    search in the sequential spawn phase (the reference oracle: strict
    lexicographic DFS with deterministic truncation).
    @raise Invalid_argument if [k] is outside [1, units]. *)
