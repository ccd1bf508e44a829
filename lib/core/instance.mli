(** A first-class placement problem instance: the paper's parameters
    (n, r, s, k, b) and the cluster's fault-domain map, bundled with
    memoized combinatorial tables that every consumer — CLI
    subcommands, experiment grids, examples, strategies — shares
    instead of re-deriving per call site.

    The cached tables are:

    - the exact binomial rows C(m, j) for m ≤ n, j ≤ max r s (the
      quantities of Lemmas 1–3: packing capacities λ·C(nx,x+1)/C(r,x+1)
      and loss terms λ·C(k,x+1)/C(s,x+1));
    - the per-x capacity/design table from the design registry
      ({!Combo.default_levels}), i.e. the Sec. III-C nx selection.

    {b Domain safety}: a [t] is immutable after construction — all tables
    are built eagerly in {!make}/{!of_params}, never lazily — so it can be
    shared read-only across {!Engine.Pool} domains.  Derived cells
    ({!with_cell}) alias the parent's tables; building one is O(1).

    Grid sweeps should build one instance per (n, r, s) table and derive
    each (b, k) cell with {!with_cell}: the binomial rows and the registry
    scan are then paid once per table instead of once per cell
    (EXPERIMENTS.md records the measured speedup). *)

type t

val make :
  ?max_mu:int -> ?domains:Spread.domains ->
  b:int -> r:int -> s:int -> n:int -> k:int -> unit -> t
(** Validate the Fig. 1 constraints and build all tables eagerly.
    [max_mu] (default 1) bounds the design multiplicity considered by the
    level table.  [domains] (default: every node its own domain at cap
    1, the map of a one-level [node:n] topology) is the fault-domain map
    the spread families plan against.  @raise Invalid_argument on
    invalid parameters or a domain map of length ≠ n, cap < 1 or with a
    negative id. *)

val of_params : ?max_mu:int -> ?domains:Spread.domains -> Params.t -> t

val with_params : t -> Params.t -> t
(** Re-target the instance at new parameters, keeping the domain map
    (the default map follows n).  The cached tables are reused when
    (n, r, s) and [max_mu] are unchanged (O(1)); otherwise they are
    rebuilt from scratch.  @raise Invalid_argument when n changes under
    an explicit domain map. *)

val with_cell : t -> b:int -> k:int -> t
(** [with_params] for a (b, k) grid cell of the same (n, r, s) table;
    always reuses the tables and the domain map.
    @raise Invalid_argument on invalid b/k. *)

val params : t -> Params.t

val domains : t -> Spread.domains
(** The fault-domain map (the default one when none was given). *)

val pp : Format.formatter -> t -> unit

(** {2 Cached combinatorics} *)

val choose : t -> int -> int -> int
(** [choose t m j] is C(m, j) by table lookup for m ≤ n and j ≤ max r s,
    falling back to {!Combin.Binomial.exact} outside the table (or where
    the table saturated).  Pass this to {!Combo.optimize},
    {!Combo.lb_avail_co} and {!Analysis.lb_avail_si_report}. *)

val levels : t -> Combo.level array
(** The per-x design/capacity table for this (n, r, s) — one registry
    scan per instance, not per optimize call. *)

val load_cap : t -> int

(** {2 Derived placements and analyses}

    Convenience constructors deduplicating the
    params-plan-materialize-analyze boilerplate that consumers (CLI,
    examples) otherwise repeat. *)

val combo_config : t -> Combo.config
(** {!Combo.optimize} over the cached levels and binomial table. *)

val combo_layout : ?spread:bool -> ?config:Combo.config -> t -> Layout.t
(** Materialize [config] (default: {!combo_config}). *)

val random_layout : rng:Combin.Rng.t -> t -> Layout.t
(** Load-balanced Random placement (Definition 4); draws from [rng]. *)

val copyset : rng:Combin.Rng.t -> ?scatter_width:int -> t -> Copyset.t * Layout.t
(** Copyset replication baseline; [scatter_width] defaults to 2(r−1). *)

val pr_avail : t -> int
(** Definition 6's prAvail_rnd for these parameters. *)

val rnd_report : t -> Random_analysis.rnd_report
(** The full {!Random_analysis.report} for these parameters. *)

val attack : ?pool:Engine.Pool.t -> t -> Layout.t -> Adversary.attack
(** {!Adversary.exact} at this instance's s and k. *)

val avail : t -> Layout.t -> Adversary.attack -> int
