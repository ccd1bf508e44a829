(** Ablation studies for the design choices called out in DESIGN.md §5:

    - {b adversary}: greedy vs exact branch-and-bound — quantifies how
      much damage the greedy seed leaves on the table;
    - {b random placement}: Definition 4's load-capped Random vs the
      uncapped Random′ of Theorem 2's proof — load spread and worst-case
      availability. *)

type adversary_row = {
  desc : string;
  s : int;
  k : int;
  greedy_failed : int;
  exact_failed : int option;  (** None when the exact search is truncated *)
}

val adversary : unit -> adversary_row list

type random_row = {
  n : int;
  r : int;
  b : int;
  s : int;
  k : int;
  capped_max_load : int;
  uncapped_max_load : int;
  capped_avail : float;  (** mean over trials, adversarial k failures *)
  uncapped_avail : float;
}

val random : ?trials:int -> unit -> random_row list

type load_row = {
  desc : string;
  n : int;
  b : int;
  r : int;
  mean_load : float;
  max_load : int;
  stddev_load : float;
  idle_nodes : int;  (** nodes carrying no replica at all *)
  mean_scatter : float;  (** mean per-node scatter width *)
}

val load : unit -> load_row list
(** Observation 2's load-imbalance concern: per-node replica-count
    statistics of Combo placements (which use only nx ≤ n nodes per
    level) versus load-capped Random placements. *)

type online_row = {
  phase : string;
  b : int;
  online_lb : int;  (** adaptive placement's live guarantee *)
  offline_lb : int;  (** from-scratch DP at the same population *)
}

val online : unit -> online_row list
(** Cost of being online: the adaptive (churn-driven) placement's bound
    vs the offline optimum through a growth / shrink / regrowth cycle. *)

val print_adversary : Format.formatter -> unit
val print_random : Format.formatter -> unit
val print_load : Format.formatter -> unit
val print_online : Format.formatter -> unit
