(** Combo(⟨λx⟩) placements (Definition 3) and the dynamic program of
    Sec. III-B1 (Eqns 5–7) that selects ⟨λx⟩ to maximize the availability
    lower bound lbAvail_co (Lemma 3) for a target number k of failures. *)

type level = {
  x : int;
  nx : int;  (** chosen design size for this x *)
  mu : int;  (** μx: the design's own λ *)
  cap_mu : int;  (** objects hosted per μ-copy: μ C(nx,x+1)/C(r,x+1) *)
  entry : Designs.Registry.entry option;
      (** backing catalogue entry, when one exists *)
}

type config = {
  params : Params.t;
  levels : level array;  (** indexed by x ∈ [s]; unusable levels have
                             [cap_mu = 0] *)
  lambdas : int array;  (** chosen λx (a multiple of μx; 0 = level unused) *)
  assigned : int array;  (** objects placed via Simple(x, λx); sums to b *)
  lb : int;  (** lbAvail_co(⟨λx⟩) at the configured k (Lemma 3), ≥ 0 *)
}

val default_levels :
  ?include_literature:bool -> ?max_mu:int -> n:int -> r:int -> s:int -> unit ->
  level array
(** One level per x ∈ [s], each backed by the best catalogue design with
    nx ≤ n (the paper's Sec. III-C selection).  Levels for which no
    design exists get [cap_mu = 0] and are never used by the DP. *)

val loss : level:level -> d:int -> k:int -> s:int -> int
(** The Lemma-2 loss at λx = d·μx: [floor(d μx C(k,x+1) / C(s,x+1))]. *)

val optimize :
  ?choose:(int -> int -> int) -> ?levels:level array -> Params.t -> config
(** The O(s·b) dynamic program (Eqns 5–7): maximizes lbAvail_co subject
    to the capacity constraint (Eqn 3).  [levels] defaults to
    [default_levels] with the params' n, r, s.  [choose] (default
    {!Combin.Binomial.exact}) supplies the binomial coefficients; the
    per-level columns C(k,x+1), C(s,x+1) are fetched once per level and
    hoisted out of the DP's inner loops, so passing {!Instance.choose}
    makes grid sweeps reuse one memoized table across cells. *)

val lb_avail_co : ?choose:(int -> int -> int) -> config -> k:int -> int
(** Lemma 3 / Eqn. 4 evaluated at an arbitrary failure count [k] (used by
    the Fig. 3 sensitivity study): [b − Σx floor(λx C(k,x+1)/C(s,x+1))],
    clamped at 0. *)

val materialize : ?spread:bool -> config -> Layout.t
(** Build the actual placement: for each level with objects assigned,
    construct its Simple(x, λx) placement and concatenate.  [spread]
    rotates design copies across the node ring for better load balance
    at the same λ (see {!Simple.of_design}).  Requires all used levels
    to have materialized catalogue entries.
    @raise Invalid_argument otherwise. *)

val brute_force_lb : Params.t -> levels:level array -> int
(** Exhaustive search over all ⟨λx⟩ satisfying Eqn. 3 (exponential; only
    for cross-checking the DP on small instances in tests). *)
