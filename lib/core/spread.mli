(** Fault-domain-capped replica planners: at most [cap] replicas of any
    one object inside each fault domain.

    A spread-capped placement buys domain-failure immunity directly:
    failing [j] domains removes at most [j·cap] replicas of any object,
    so for [j ≤ ⌊(s−1)/cap⌋] no object can die.  The domain map is a
    plain value carried by {!Instance}; [Topology.Spec.domains] derives
    one from one level of a fault-domain tree. *)

type domains = {
  domain_of : int array;  (** [domain_of.(nd)]: node [nd]'s domain id, ≥ 0 *)
  cap : int;  (** max replicas of one object per domain, ≥ 1 *)
  level : string;  (** the domains' level name, e.g. ["rack"] (messages) *)
  summary : string;  (** one-line description of the topology (messages) *)
}

val slots : domains -> int
(** [Σ_d min(cap, |d|)]: how many replicas of one object the domains
    admit under the cap. *)

val check_feasible : domains -> r:int -> (unit, string) result
(** [Ok ()] iff [slots >= r]; the error is a one-line actionable
    message naming the level, cap and shortfall. *)

val simple : domains -> b:int -> r:int -> Layout.t
(** Deterministic round-robin: object [o] starts at domain
    [o mod domains] and cycles, taking the least-loaded unused node of
    each eligible domain (ties to the lowest id), one per visit, until
    [r] replicas are placed.  @raise Invalid_argument when infeasible
    (message of {!check_feasible}, prefixed ["simple-spread: "]). *)

val random : rng:Combin.Rng.t -> domains -> b:int -> r:int -> Layout.t
(** Randomized variant: per object a fresh domain permutation, one
    uniformly random unused node per visit, same cap discipline.
    @raise Invalid_argument when infeasible (prefixed
    ["random-spread: "]). *)

val max_per_domain : Layout.t -> domains -> int
(** The realized spread: the largest number of replicas any object has
    inside one domain. *)
