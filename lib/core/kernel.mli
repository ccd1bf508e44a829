(** The incremental attack-evaluation kernel.

    Definition 1 scores a failure set by counting objects with ≥ s
    replicas inside it.  Instead of re-evaluating that count from
    scratch per candidate set (an O(b·r) pass over every replica list),
    the kernel keeps per-object hit counters and a running dead-object
    tally, updated in O(load(u)) when unit [u] enters or leaves the
    failure set — the marginal-gain structure that copyset-style
    analyses and CELF lazy-greedy selection exploit.

    Storage is web-scale flat (DESIGN.md §11): the unit → replicas
    incidence is one {!Combin.Csr.t} — two off-heap [Bigarray] planes
    shared untouched by every {!copy} — and the per-object counters are
    a [Bigarray] int16 plane, so a branch copy is a single blit with no
    per-object boxing at n ~ 10^4 nodes, b ~ 10^6 objects.

    A kernel is built once per {!Layout.t} (over nodes, from the
    memoized {!Layout.incidence} CSR) or once per domain level (over
    fault domains, via {!of_groups} or {!of_csr}); {!copy} then yields
    independent search states sharing the immutable incidence, so
    parallel branch-and-bound branches each thread their own counters
    down and up the search tree.  Alongside the counters the node path
    lazily derives one {!Combin.Bitset} per object (the units hosting
    its replicas), giving {!check} a popcount-threshold evaluation of
    arbitrary failure sets without touching the counter state.

    Kernels are single-domain mutable state; share only via {!copy}.
    All counts are exact, so every algorithm rebuilt on the kernel is
    bit-identical to its naive {!Layout.failed_objects} formulation. *)

type t

val make : Layout.t -> s:int -> t
(** Attack units are the layout's nodes.  Shares the layout's memoized
    {!Layout.incidence} CSR; O(b) fresh counter state. *)

val of_groups : s:int -> b:int -> int array array -> t
(** Attack units are arbitrary groups: [groups.(u)] lists one entry per
    replica hosted inside unit [u] (entries may repeat when a unit holds
    several replicas of the same object — e.g. fault domains).  Packs
    the groups into a private CSR; prefer {!of_csr} when the caller
    already holds one (e.g. {!Combin.Csr.group}). *)

val of_csr : s:int -> Combin.Csr.t -> t
(** Attack units are the CSR's rows, objects its column space.  The CSR
    is shared, not copied — treat it as immutable afterwards. *)

val csr : t -> Combin.Csr.t
(** The shared incidence (unit → replica entries). *)

val copy : t -> t
(** An independent duplicate of the {e current} attack state over the
    same shared incidence: the counter plane is one [Bigarray] blit.
    Copying an all-up kernel yields an all-up kernel. *)

val reset : t -> unit
(** Return to the all-up state. *)

val units : t -> int
val objects : t -> int
val threshold : t -> int

val degree : t -> int -> int
(** Replicas hosted by a unit: an upper bound on its marginal damage. *)

val add : t -> int -> unit
(** Fail one unit: O(load).  Units are not reference-counted; adding a
    unit already in the failure set double-counts.  @raise
    Invalid_argument in that case. *)

val remove : t -> int -> unit
(** Undo {!add}. *)

val killed : t -> int
(** Objects with ≥ s replicas inside the current failure set. *)

val hits : t -> int -> int
(** Failed replicas of one object. *)

val failed_units : t -> int array
(** The current failure set, sorted. *)

val marginal : t -> int -> int * int
(** [(newly, progress)]: objects this unit would push to exactly [s]
    hits, and objects it touches that are still below [s] — the greedy
    objective pair, compared lexicographically. *)

val check : t -> int array -> int
(** One-shot: objects killed by the given unit set (sorted, distinct).
    Uses the per-object incidence bitsets when the incidence is
    multiplicity-free — built lazily on the first [check], so
    greedy/B&B-only callers never pay for them — and a scratch counter
    pass otherwise; either way equals {!Layout.failed_objects} on the
    node kernel.  Never reads the counter state. *)

val check_scratch : t -> int array -> int
(** {!check} forced down the scratch-counter path (one O(b) counting
    pass over the set's CSR rows), bypassing the bitset cache.  Always
    equal to {!check}; exposed as the property-test oracle for the
    bitset path. *)

type greedy_stats = {
  evals : int;  (** marginal recomputations *)
  heap_pops : int;  (** candidate pops from the CELF heap *)
  stale_reevals : int;
      (** pops whose cached bound had decayed since it was pushed *)
}

val default_shards : int -> int
(** The CELF shard count for a unit count: one shard per ~512 units
    (so one below 1024 units), at most 64. *)

val select_greedy :
  ?pool:Engine.Pool.t ->
  ?heap:Combin.Heap.Int_max.t ->
  ?shards:int ->
  t ->
  picks:int ->
  int array * greedy_stats
(** CELF lazy-greedy: pick [picks] units one at a time, each maximizing
    [(newly, progress)] with ties to the lowest unit id — the same
    picks as a full rescan per pick (the pre-kernel greedy).
    Candidates live in {!Combin.Heap.Int_max}s keyed by a monotone
    upper bound (the progress component, which never grows as the
    failure set does), one heap per contiguous shard of unit ids; per
    pick every shard re-evaluates its popped candidates exactly until
    no remaining bound can beat or tie its best (DESIGN.md §10), in
    parallel over [pool] when there are several shards, and the reduce
    takes the greatest value with ties to the lowest unit id.  Per-round
    loser re-pushes are batched through {!Combin.Heap.Int_max.push_many}.

    Determinism contract (DESIGN.md §11): the picks do not depend on
    the shard count or the pool; the statistics are a function of the
    shard count; and the shard count defaults to a pure function of
    the unit count (one shard below 1024 units), never of the pool — so
    picks and statistics are identical at any [pool] size.  Pass
    [shards] explicitly only in tests and benches.

    The kernel ends with the picks applied; the returned array is in
    pick order.  [heap] lets a repeated caller (the B&B frontier's
    greedy-completion probes, {!Bb}) supply a long-lived heap for the
    first shard that is {!Combin.Heap.Int_max.clear}ed and reused
    instead of allocated per call; the pop order is a strict total
    order, so reuse changes no pick and no statistic.
    @raise Invalid_argument if [picks] exceeds the unchosen units. *)

val updates : t -> int
(** Lifetime {!add} + {!remove} count on this state (not its copies) —
    drained by callers into telemetry. *)

type kernel = t
(** Alias so {!Dyn} can name the flat kernel it freezes into. *)

(** The dynamic kernel: same hit-counter state machine, but the object
    population itself churns.  Where the flat kernel's CSR incidence is
    immutable (built once per layout), [Dyn] stores the unit → objects
    incidence as per-unit rows grown in amortized-doubling blocks with
    per-object back-pointers, so a churn engine can create and delete
    objects in O(r) per event and fail/recover units in O(load) —
    re-scoring availability and the lazy-greedy adversary after every
    event without ever rebuilding (DESIGN.md §12). *)
module Dyn : sig
  type t

  val create : units:int -> s:int -> t
  (** An empty population over a fixed unit universe.
      @raise Invalid_argument when [units < 0] or [s < 1] (a
      non-positive threshold kills every object; the churn engine has no
      use for that degenerate regime). *)

  val units : t -> int
  val objects : t -> int
  (** Live objects; their slots are dense in [0, objects t). *)

  val threshold : t -> int

  val add_object : t -> int array -> int
  (** Register one object hosted by the given (distinct) units; returns
      its slot, always [objects t] before the call.  O(r) amortized; the
      hit counter is seeded from the current failure set, so an object
      created inside an outage is born dead when ≥ s of its hosts are
      down.  @raise Invalid_argument on an out-of-range or repeated
      unit. *)

  val remove_object : t -> int -> int
  (** Delete the object in the given slot, O(r).  Slots stay dense: the
      last slot's object moves into the freed slot, and the PREVIOUS
      last slot index ([objects t] after the call) is returned so
      callers tracking external ids can update their slot map — when the
      returned index equals the removed slot, nothing moved.
      @raise Invalid_argument on an out-of-range slot. *)

  val replicas : t -> int -> int array
  (** The hosting units of a live slot (a fresh copy). *)

  val fail_unit : t -> int -> unit
  (** Fail one unit: O(load).  @raise Invalid_argument if already
      failed. *)

  val recover_unit : t -> int -> unit
  (** Undo {!fail_unit}. *)

  val killed : t -> int
  (** Objects with ≥ s replicas inside the current failure set. *)

  val load : t -> int -> int
  (** Live objects hosting a replica on the given unit — the movement
      budget of a permanent departure. *)

  val row : t -> int -> int array
  (** The live slots hosting a replica on the given unit (a fresh copy,
      in no particular order) — the objects a permanent departure of
      that unit must relocate. *)

  val failed : t -> int -> bool
  (** Whether the unit is in the current failure set. *)

  val failed_units : t -> int array
  (** The current failure set, sorted. *)

  val failed_count : t -> int
  (** Size of the current failure set, O(1). *)

  val hits : t -> int -> int
  val marginal : t -> int -> int * int

  val moves : t -> int
  (** Lifetime object creates + deletes — drained into telemetry. *)

  val check_scratch : t -> int
  (** From-scratch recount of {!killed} straight from each object's
      replica list and the failed bitset, verifying the incremental hits
      plane entry by entry on the way ([Failure] on any divergence).
      O(b·r) — the oracle proving incremental ≡ from-scratch. *)

  val freeze : t -> kernel
  (** Pack the live rows into a flat {!kernel} (same slot numbering) and
      replay the current failure set onto it — the from-scratch rebuild
      the incremental state is tested against, and what a one-shot
      caller should use for B&B attacks. *)

  val worst_case : t -> k:int -> int array * int * greedy_stats
  (** CELF lazy-greedy adversary over the CURRENT object population,
      attacking from all-up on a scratch counter plane (the live failure
      state is left untouched and does not bias the adversary): returns
      the k picks in order, the objects they kill, and the scan stats.
      Runs the same CELF driver as {!select_greedy}, with the same
      default shard count, so picks and stats are bit-identical to
      {!select_greedy} on a freshly built flat kernel over the same live
      objects — the packing base differs (a monotone degree high-water
      mark) but every CELF comparison is base-invariant (see DESIGN.md
      §12).
      @raise Invalid_argument when [k] exceeds the unit count. *)
end
