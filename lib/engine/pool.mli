(** A fixed-size domain pool with deterministic data-parallel combinators.

    Built directly on OCaml 5 [Domain]s (no domainslib): [create] spawns
    [domains - 1] worker domains that sleep on a condition variable; each
    batch is drained by the workers *and* the calling domain.  All
    combinators place results by index, so the output never depends on
    how tasks were scheduled — running at [~domains:1] (the reference
    sequential path) and [~domains:n] is bit-identical, provided the
    task function itself is deterministic.  Tasks that share a monotone
    {!Bound} may let it steer how much they explore, never what they
    return (the exact search over first picks in [Placement.Bb] is the
    one user).  The seed-splitting discipline for stochastic tasks lives
    in {!Combin.Rng.split_n}: split one RNG per task *before*
    dispatching, never inside tasks.

    Pools are not reentrant: calling a combinator from inside a task of
    the same pool (or from two domains at once) raises {!Nested_use}
    instead of deadlocking.  Layers that compose (e.g. a Monte-Carlo
    harness whose trials each run an adversary) must parallelize at
    exactly one level and leave the inner layer sequential. *)

type t

exception Nested_use
(** Raised when a combinator is invoked while another batch is in flight
    on the same pool — in particular from inside one of its own tasks. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (clamped to
    at least 1 total; default {!default_domains}).  [~domains:1] spawns
    nothing and runs every combinator inline. *)

val domains : t -> int
(** Total parallelism including the calling domain. *)

val shutdown : t -> unit
(** Terminate and join the workers.  The pool must not be used after. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map t f xs] is [Array.map f xs], evaluated in contiguous
    chunks across the pool.  Result order follows input order.  If any
    application raises, the first (lowest-indexed) exception is re-raised
    in the caller after all tasks have settled. *)

