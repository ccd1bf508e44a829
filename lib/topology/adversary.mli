(** The domain-aware worst-case adversary: fail the [j] domains at one
    level of a fault-domain tree that kill the most objects.

    This is the paper's Definition-1 adversary with its choice set
    restricted from arbitrary [k]-node subsets to unions of [j]
    same-level domains.  On a {!Build.flat} tree (singleton racks) the
    rack-level adversary therefore {e is} the node adversary and finds
    the same availability.

    The search is the node adversary's own
    ({!Placement.Adversary.search_greedy} and
    {!Placement.Adversary.search_exact}, DESIGN.md §9/§15) over a
    kernel whose units are the domains, so the reported attack is
    bit-identical at any [-j] even though, on a pool, the
    branch-and-bound's explored node set is not.  Telemetry lands under
    [topology/adversary/...]. *)

type attack = {
  failed_domains : int array;  (** chosen domain ids, ascending *)
  failed_nodes : int array;  (** their member nodes, ascending *)
  failed_objects : int;
  exact : bool;  (** false only when the global node budget ran out *)
}

val kernel_of :
  Placement.Layout.t -> Tree.t -> level:int -> s:int -> Placement.Kernel.t
(** The all-up attack kernel whose units are the domains at [level]
    ({!Placement.Kernel.make} with [~domains]): row [d] holds one entry
    per replica inside domain [d]. *)

val eval :
  Placement.Layout.t -> s:int -> Tree.t -> level:int -> int array -> int
(** Objects killed by failing the given domains. *)

val greedy :
  Placement.Layout.t -> s:int -> Tree.t -> level:int -> j:int -> attack
(** Pick domains one at a time by marginal damage ([exact = false]):
    the exact-score greedy over the domain kernel
    ({!Placement.Kernel.select_greedy}). *)

val exact :
  ?budget:int ->
  ?pool:Engine.Pool.t ->
  Placement.Layout.t -> s:int -> Tree.t -> level:int -> j:int -> attack
(** Branch-and-bound over domain subsets on the node adversary's search
    ([budget]: ONE search-node allowance, default 5e7, shared by the
    per-first-pick DFS runs).  When it completes ([exact = true]) the
    attack is the lexicographically first optimal domain set, or the
    greedy one when nothing strictly beats it — exactly what a
    greedy-seeded strict enumeration of every subset returns; on budget
    exhaustion it falls back to the greedy attack with
    [exact = false], deterministically, and logs a warning.  The search
    runs under the [topology/adversary/attack] span.
    @raise Invalid_argument when the layout and tree disagree on [n],
    or [j] is out of range. *)

val avail : Placement.Layout.t -> attack -> int
(** [b − failed_objects]. *)
