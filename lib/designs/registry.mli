(** Catalogue of (x+1)-(v, r, μ) designs usable as Simple(x, μ) placements.

    Mirrors the role of Fig. 4 and Sec. III-C of the paper: given x, r and
    a system size n, find the best nx ≤ n for which a design is known.
    Two kinds of entry:

    - {b materialized}: this library can generate the blocks (STS, AG, PG,
      unitals, SQS, spherical designs, PGL-orbit designs, exact search);
    - {b literature}: existence is established in the design-theory
      literature the paper cites (e.g. Hanani's spectrum results, the
      known S(4,5,v) list); we record parameters and block counts only.
      Analytical experiments (lower bounds, Figs 3–6, 9, 10) need only
      capacities; simulations use materialized entries exclusively. *)

type availability =
  | Materialized of ((int array -> unit) -> unit)
      (** The design's block iterator: [iter f] calls [f] on each block,
          sorted, in the design's order, in a scratch array [f] must
          copy to keep.  The Steiner triple systems stream their blocks
          without building a boxed design; the other families build one
          and stream its blocks. *)
  | Literature of string  (** citation *)

type entry = {
  name : string;
  strength : int;  (** t = x + 1 *)
  v : int;
  block_size : int;  (** the paper's r *)
  mu : int;  (** the design's λ, the paper's μx *)
  blocks : int;  (** exact block count: μ C(v,t) / C(r,t) *)
  source : availability;
}

val is_materialized : entry -> bool

val capacity : entry -> int
(** Alias for [e.blocks]: the number of objects a Simple(x, μ) placement
    built from this design can host (Observation 1). *)

val entries :
  ?max_mu:int -> ?include_literature:bool -> strength:int -> block_size:int ->
  max_v:int -> unit -> entry list
(** All catalogue entries with the given t and r and [v <= max_v], sorted
    by increasing v.  [max_mu] defaults to 1; [include_literature]
    defaults to [true].  Entries with μ > 1 (the PGL-orbit 3-(q+1,5,μ)
    family) appear only when [max_mu > 1]. *)

val best :
  ?max_mu:int -> ?include_literature:bool -> ?materialized_only:bool ->
  strength:int -> block_size:int -> max_v:int -> unit -> entry option
(** The entry maximizing capacity per unit μ (the paper's selection:
    largest usable nx).  Ties broken toward larger v, then smaller μ. *)

val materialize : entry -> Block_design.t
(** The boxed design, collected from the entry's iterator in its order.
    @raise Failure when the generator's parameters or block count
    disagree with the entry's.
    @raise Invalid_argument on a literature entry, or on a block that is
    not sorted, distinct and within [0 .. v-1]. *)

val paper_nx_table :
  unit -> (int * (int * (int * entry option) list) list) list
(** Fig. 4 reproduction: for each n in {31, 71, 257}, for each r in
    {2..5}, the selected nx entry per x in {1..r-1} (μ = 1, literature
    included): [(n, [(r, [(x, entry)])])]. *)
