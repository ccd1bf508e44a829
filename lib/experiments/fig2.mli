(** Fig. 2: tightness of Lemma 2's lower bound.

    For n = 71, x = 1, r = 3 (Simple(1, λ) placements built from STS(69)),
    plots Avail(π) − lbAvail_si(x, λ) against b for
    (s, k) ∈ {2} × {2..5} ∪ {3} × {3..5}.  Avail(π) is measured by the
    exact worst-case adversary, which falls back to its greedy attack
    only when its node budget runs out (see DESIGN.md §3). *)

type point = {
  s : int;
  k : int;
  b : int;
  lambda : int;
  avail : int;  (** adversary-measured Avail(π) (upper bound if inexact) *)
  lb : int;  (** lbAvail_si(x, λ) *)
  gap : int;  (** avail − lb, the plotted quantity *)
  exact : bool;
}

val compute : ?pool:Engine.Pool.t -> ?bs:int list -> unit -> point list
(** With [pool], the (b, s, k) grid points run as pool tasks; output is
    bit-identical to the sequential run. *)

val print : ?pool:Engine.Pool.t -> Format.formatter -> unit
