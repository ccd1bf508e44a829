(** The dst invariant registry (DESIGN.md §14): properties of the
    continuous engine checked after every applied event ([Step]) or at
    [Measure] pulses ([Pulse], for the expensive oracles).

    A violation raises {!Violation} with the invariant's name and a
    one-sentence message; the harness turns that into a failing
    {!Harness.outcome} and (on request) hands the history to the
    shrinker.  Fault injection must never trip an invariant: injected
    faults surface as rejections and rollbacks, after which every
    property here still holds. *)

exception Violation of string * string
(** [(invariant name, message)]. *)

val fail : string -> ('a, unit, string, 'b) format4 -> 'a
(** [fail name fmt ...] raises {!Violation} — for custom invariants in
    tests. *)

type cadence =
  | Step  (** after every applied event *)
  | Pulse  (** at [Measure] events only (expensive oracles) *)

type ctx = {
  engine : Dsim.Churn.t;
  step : Dsim.Churn.step option;
      (** the step just applied; [None] on the pre-history check *)
  pre_load : int;
      (** the leaver's {!Dsim.Churn.node_load} captured before a
          [Node_leave] was applied (0 for every other event) — the
          movement budget that leave was allowed to spend *)
  applied : Dsim.Event.t list;
      (** every successfully applied event so far, newest first *)
  rescore : Dsim.Churn.rescore Lazy.t;
      (** the current worst-case attack, shared so multiple invariants
          (and the harness's own min tracking) pay for it once *)
}

type t = {
  name : string;  (** e.g. ["engine/oracle"], ["strategy/combo"] *)
  describe : string;
  cadence : cadence;
  check : ctx -> unit;  (** raises {!Violation} on failure *)
}

val builtins : t list
(** The always-on registry:

    - [engine/oracle] ([Step]): {!Dsim.Churn.check} — incremental
      kernel, adaptive bookkeeping, availability, adversary picks all ≡
      from-scratch recomputation;
    - [availability/lower-bound] ([Step]): current availability never
      falls below the live Lemma-3 guarantee at k' = max(k, f) for f
      nodes down, nor the worst-case rescore below it at k;
    - [movement/budget] ([Step]): a create moves exactly r replicas, a
      leave at most r·load(leaver), everything else nothing;
    - [placement/in-service] ([Pulse]): no live replica sits on a node
      that permanently left;
    - [engine/replay] ([Pulse]): a fresh engine replaying the applied
      history (injection disarmed) reaches the same live/available/
      moved/bound state and the same layout. *)

val of_strategy : (module Placement.Strategy.S) -> t
(** Per-strategy invariant ([strategy/<name>], [Pulse]): plan the
    strategy at the live population's parameter cell, on the engine's
    fault domains one level above the nodes at cap 1, and check the
    plan against its own promises — the ⌈r·b/n⌉ load cap when it claims
    [Load_balanced]; when it claims [Domain_capped], at most cap
    replicas of an object per domain and no object killed by failing
    j = ⌊(s−1)/cap⌋ domains (checked when 1 ≤ j < the domain count);
    and availability under a greedy k-attack ≥ its
    {!Placement.Strategy.S.lower_bound}.  Cells the strategy cannot
    plan (invalid parameters, over an [Exact_small] budget, fewer
    domain slots than r) are skipped, not failed. *)

val canaries : t list
(** Deliberately broken invariants, off by default, enabled by name via
    the harness's [break_invariants] — fuel for shrinker drills and the
    check.sh smoke: [canary/full-availability] asserts that no live
    object is ever unavailable, which any create + s failures refutes. *)

val find_canary : string -> t option
val canary_names : string list
