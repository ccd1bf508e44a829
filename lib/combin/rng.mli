(** Deterministic splittable pseudo-random number generator (SplitMix64).

    All stochastic components of the reproduction (Random placement,
    copysets, Monte-Carlo experiments) draw from this generator so
    that every experiment is reproducible from a fixed seed.  SplitMix64 is
    small, fast, passes BigCrush, and supports {!split} for building
    statistically independent streams for sub-experiments. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of [t]'s subsequent output. *)

val split_n : t -> int -> t array
(** [split_n t n] draws [n] independent child generators from [t], in
    index order.  This is the seed-splitting discipline for parallel
    work: split one child per task *before* dispatching so that every
    task's stream — and hence every result — is independent of task
    scheduling (see {!Engine.Pool}). *)

val copy : t -> t

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound > 0] required.
    Uses rejection sampling, so it is exactly uniform. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_distinct : t -> n:int -> k:int -> int array
(** [sample_distinct t ~n ~k] draws a uniformly random k-subset of
    [{0..n-1}], returned sorted.  Uses Floyd's algorithm: O(k) expected. *)

val choose_weighted : t -> float array -> int
(** [choose_weighted t w] draws index [i] with probability proportional to
    [w.(i)] ([w.(i) >= 0], not all zero). *)
