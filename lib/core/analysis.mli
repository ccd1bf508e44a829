(** Analytical results for Simple(x, λ) placements: Lemma 1, Lemma 2,
    Eqn. 1 and Theorem 1. *)

val lambda_min : x:int -> nx:int -> r:int -> mu:int -> b:int -> int
(** Eqn. 1: the minimal λ (a multiple of μ) such that
    [b <= λ C(nx,x+1) / C(r,x+1)], given that a Simple(x, μ) design
    exists on nx nodes.  @raise Invalid_argument if
    [μ C(nx,x+1)/C(r,x+1)] is not integral. *)

type lb_report = {
  lb : int;  (** the raw Lemma-2 bound; negative means vacuous *)
  lb_clamped : int;  (** [max 0 lb], the usable guarantee *)
  failed_ub : int;
      (** the subtracted term [⌊λ C(k,x+1) / C(s,x+1)⌋]: an upper bound
          on objects the worst-case adversary can fail *)
  vacuous : bool;  (** [lb <= 0]: the bound says nothing *)
}
(** Labeled result of Lemma 2, replacing the bare [int] of the old
    positional API: call sites name the field they mean instead of
    re-deriving clamping and vacuity ad hoc. *)

val lb_avail_si_report :
  ?choose:(int -> int -> int) ->
  b:int -> x:int -> lambda:int -> k:int -> s:int -> unit -> lb_report
(** Lemma 2: [lbAvail_si = b - floor(λ C(k,x+1) / C(s,x+1))].  [choose]
    defaults to {!Combin.Binomial.exact}; grid sweeps pass
    {!Instance.choose} to reuse one memoized table. *)

type competitive = {
  c : float;  (** the competitive factor of Theorem 1 *)
  alpha : float;  (** the additive slack α *)
}

val theorem1 : x:int -> nx:int -> r:int -> s:int -> k:int -> mu:int -> competitive option
(** Theorem 1's constants, or [None] when the precondition
    [C(r,x+1) C(k,x+1) < C(nx,x+1) C(s,x+1)] fails (c would be ≤ 0 or
    infinite).  For any placement π' and Simple(x,λ) placement π:
    [Avail(π') < c·Avail(π) + α]. *)

val competitive_limit_fraction : x:int -> nx:int -> k:int -> float
(** The illustration after Theorem 1 for s = r:
    [1 - (k(k-1)...(k-x)) / (nx(nx-1)...(nx-x))], the asymptotic fraction
    of optimal availability guaranteed as b → ∞. *)

val ub_avail_any : b:int -> r:int -> s:int -> n:int -> k:int -> int
(** A counting upper bound on [Avail(π)] valid for {e every} placement π
    (not in the paper; complements Theorem 1 from above):

    the k most-loaded nodes carry [L ≥ ⌈k·r·b/n⌉] replicas; failing them
    leaves each surviving object with ≤ s−1 replicas inside K and each
    failed one with ≤ min(r,k), so with m = min(r,k)

    [Avail ≤ ⌊(m·b − L) / (m − s + 1)⌋],

    clamped to [0, b].  Tight for s = r = m; used to sandwich the optimal
    placement in tests and in the planner CLI. *)
