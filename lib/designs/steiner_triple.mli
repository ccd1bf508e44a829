(** Steiner triple systems: 2-(v, 3, 1) designs.

    These drive every [r = 3, x = 1] parameter row in the paper (e.g.
    nx = 31, 69, 255 in Fig. 4).  An STS(v) exists iff v ≡ 1 or 3 (mod 6);
    we build the two classical direct constructions:

    - {b Bose} (v = 6t + 3): points Z_{2t+1} × {0,1,2}; and
    - {b Skolem} (v = 6t + 1): points (Z_{2t} × {0,1,2}) ∪ {∞}, using the
      standard half-idempotent commutative quasigroup on Z_{2t}.

    Both are as described in Lindner & Rodger, {i Design Theory}, ch. 1
    (reference [23] of the paper). *)

val admissible : int -> bool
(** [admissible v] iff v ≡ 1 or 3 (mod 6) and [v >= 3] (or [v = 1]). *)

val largest_admissible : int -> int option
(** Largest admissible [v' <= v] with [v' >= 3]. *)

val iter : int -> (int array -> unit) -> unit
(** [iter v f] calls [f] on each block of the STS(v), sorted, in the
    design's order: generation order reversed, which is the order
    {!make} returns and the order routing sees (the lowest-index block
    wins ties).  Every block arrives in one scratch array that [f] must
    copy to keep, so a pass allocates nothing per block.
    @raise Invalid_argument if [v] is not admissible or [v < 3]. *)

val make : int -> Block_design.t
(** [make v] is an STS(v): the blocks of {!iter}, copied, in its order.
    @raise Invalid_argument if [v] is not admissible or [v < 3]. *)
