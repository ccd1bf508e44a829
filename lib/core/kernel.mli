(** The incremental attack-evaluation kernel.

    Definition 1 scores a failure set by counting objects with ≥ s
    replicas inside it.  Instead of re-evaluating that count from
    scratch per candidate set (an O(b·r) pass over every replica list),
    the kernel keeps per-object hit counters and a running dead-object
    tally, updated in O(load(u)) when unit [u] enters or leaves the
    failure set — the marginal-gain structure the greedy adversary and
    the branch-and-bound search exploit.

    Storage is web-scale flat (DESIGN.md §11): the unit → replicas
    incidence is one {!Combin.Csr.t} — two off-heap [Bigarray] planes
    shared untouched by every {!copy} — and the per-object counters are
    a [Bigarray] int16 plane, so a branch copy is a single blit with no
    per-object boxing at n ~ 10^4 nodes, b ~ 10^6 objects.  The greedy's
    object → units index is the layout's own replica table (read through
    a node → domain map for domain kernels), so it costs no transpose.

    A kernel is built once per {!Layout.t}, over its nodes or over a
    partition of them into fault domains ({!make}), or over arbitrary
    groups ({!of_groups}); {!copy} then yields independent search states
    sharing the immutable incidence, so parallel branch-and-bound
    branches each thread their own counters down and up the search
    tree.  Every index is built eagerly: copies are used from several
    domains at once.

    Kernels are single-domain mutable state; share only via {!copy}.
    All counts are exact, so every algorithm rebuilt on the kernel is
    bit-identical to its naive {!Layout.failed_objects} formulation. *)

type t

val make : ?domains:int array array -> Layout.t -> s:int -> t
(** Attack units are the layout's nodes, or with [domains] the given
    disjoint node sets ([domains.(d)] lists the member nodes of unit
    [d]; a domain holding several replicas of an object counts each).
    Shares the layout's memoized {!Layout.incidence} CSR (regrouped per
    domain with {!Combin.Csr.group}) and its replica table; O(b) fresh
    counter state plus one node → unit array.
    @raise Invalid_argument on a member out of range or a node listed
    in two domains. *)

val of_groups : s:int -> b:int -> int array array -> t
(** Attack units are arbitrary groups: [groups.(u)] lists one entry per
    replica hosted inside unit [u] (entries may repeat when a unit holds
    several replicas of the same object).  Packs the groups into a
    private CSR and transposes them into the object → units index. *)

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
(** One-shot: objects killed by the given unit set (sorted, distinct),
    by one O(b) scratch counter pass over the set's rows; equals
    {!Layout.failed_objects} on a node kernel.  Never reads the counter
    state. *)

val select_greedy : t -> picks:int -> int array * int
(** Greedy: pick [picks] units one at a time, each maximizing
    [(newly, progress)] with ties to the lowest unit id — the picks of
    a full rescan per pick.  Extends the kernel's current failure set
    (its units are never picked) and ends with the picks applied; the
    returned array is in pick order, with the work done: one seed
    {!marginal} per unchosen unit plus one score update per host entry
    patched.

    Every unchosen unit's pair is kept exact, packed into one int; a
    pick patches only the hosts of the objects it brings to s-1 or s
    hits, so a call costs one {!marginal} per unit plus picks·units
    compares and picks·load·r updates (DESIGN.md §10).
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
    re-scoring availability and the greedy adversary after every
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

  val worst_case : t -> k:int -> int array * int * int
  (** Greedy adversary over the CURRENT object population, attacking
      from all-up on a scratch counter plane (the live failure state is
      left untouched and does not bias the adversary): returns the k
      picks in order, the objects they kill, and the number of score
      updates it made.  The greedy of {!select_greedy}, sharing its
      argmax and score updates, so the picks and kills equal
      {!select_greedy}'s on a freshly built flat kernel over the same
      live objects: the scores start from the row lengths, and each
      pick patches the scores of the hosts of every object it brings
      to s-1 or s hits (one update per host), so a query costs
      k·units compares plus k·load·r updates and allocates only its
      picks.  Its scratch
      state lives in [t]: like every other operation here, one query at
      a time per [t] (DESIGN.md §12).
      @raise Invalid_argument when [k] exceeds the unit count. *)
end

(** A kernel that also keeps every unit's finisher count: the live
    objects the unit would kill on its own, i.e. objects at h < s hits
    of which it holds at least s − h replicas.  On node kernels that is
    the [newly] of {!marginal}; on domain kernels a unit holding two
    replicas of an object also finishes it at s − 2 hits.  It is the
    per-unit half of the exact adversary's counting bound
    ({!Bb.counting_bound}, DESIGN.md §15).

    {!add} and {!remove} are {!Kernel.add} and {!Kernel.remove} plus a
    patch of the distinct hosts of each object whose hits cross s − m
    (hosts holding m replicas) or s, so the counts stay exact through
    any add/remove sequence.  Node kernels read the kernel's own host
    lists with multiplicity 1; any kernel where a unit holds two
    replicas of one object (or a node lies in no unit) builds one flat
    (unit, multiplicity) table per {!make}, shared by every {!copy}. *)
module Finishers : sig
  type t

  val make : kernel -> t
  (** Wrap a kernel (not copied: further updates must go through this
      wrapper), seeding the counts from its current hits.  O(b·r²). *)

  val copy : t -> t
  (** {!Kernel.copy} of the wrapped state plus its counts; the host
      table is shared. *)

  val kernel : t -> kernel
  (** The wrapped kernel, for reads and for {!Kernel.select_greedy}
      excursions that restore the hits before the next {!add}. *)

  val add : t -> int -> unit
  val remove : t -> int -> unit

  val fin : t -> int -> int
  (** The finisher count of one unit. *)

  val top_fin : t -> start:int -> m:int -> int
  (** Sum of the [m] largest finisher counts among units >= [start];
      one O(units · m) pass, no allocation. *)

  val pairs : t -> int array
  (** [(pairs t).(start)]: the most objects that any two units
      [start <= u < v] both host (each object counted once per pair,
      whatever the multiplicities).  One O(b·r²) sweep into [units + 1]
      ints plus two unit-sized scratch rows (and an object-sized one
      when some unit holds two replicas of an object) — never a units²
      matrix. *)
end
