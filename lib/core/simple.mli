(** Simple(x, λ) placements (Definition 2).

    Object replicas are placed on blocks of an (x+1)-(nx, r, μ) design,
    copied ⌈b / capacity⌉ times so that the achieved λ is minimal per
    Eqn. 1 — no (x+1)-subset of nodes hosts more than λ objects in
    common. *)

type t = {
  layout : Layout.t;
  x : int;
  nx : int;  (** nodes actually carrying replicas (≤ layout.n) *)
  mu : int;
  lambda : int;  (** achieved λ, the minimal multiple of μ fitting b *)
}

val of_design : ?spread:bool -> Designs.Block_design.t -> n:int -> b:int -> t
(** [of_design d ~n ~b] places b objects on the blocks of [d] (strength
    x+1, v = nx ≤ n, λ = μ), cycling through copies of the design.
    [spread] (default false, the paper's construction) rotates each copy
    to a different slice of the node ring: the achieved λ is identical —
    overlap counts of unioned Simple(x, μ) placements add — but load
    reaches all n nodes instead of only nx (Observation 2).
    @raise Invalid_argument if [b < 1] or [d.v > n]. *)

val of_entry : ?spread:bool -> Designs.Registry.entry -> n:int -> b:int -> t
(** Build from a registry entry; materializes the design, except for
    complete (t = r) entries which stream lazily.
    @raise Invalid_argument on a literature-only entry. *)

val lower_bound : t -> k:int -> s:int -> int
(** Lemma 2 applied to this placement: max 0 (lbAvail_si). *)
