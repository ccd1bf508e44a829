(** The dst run loop (DESIGN.md §14): generate (or accept) a history,
    drive it through a fresh {!Dsim.Churn} engine via the {!Dsim.Api}
    surface with fault injection armed, and run the {!Invariant}
    registry after every applied event.

    A run is a pure function of its {!config} (plus the explicit
    history, if any): no clock, no global rng, injection armed
    per-domain — so a {!sweep} fanned out through {!Engine.Pool} is
    bit-identical at any [-j], and a violating run can be re-executed
    verbatim by the shrinker. *)

type config = {
  n : int;
  r : int;
  s : int;
  k : int;
  seed : int;  (** drives generation and the injection plan *)
  steps : int;  (** weighted draws requested from the profile *)
  measure_every : int;  (** pulse cadence; 0 disables [Pulse] checks *)
  profile : Profile.t;
  strategy : (module Placement.Strategy.S) option;
      (** adds the auto-discovered [strategy/<name>] invariant *)
  inject_rate : int;
      (** every registered fault point fires with probability 1/rate;
          0 disarms injection for the run *)
  break_invariants : string list;
      (** canary names to enable ({!Invariant.find_canary}) — shrinker
          drills.  @raise Invalid_argument from {!run} on unknown names *)
  extra_invariants : Invariant.t list;  (** test hooks *)
}

type violation = {
  invariant : string;
  message : string;
  step_index : int;  (** 0-based index into the history *)
  event_line : string;  (** the event whose post-check tripped *)
}

type outcome = {
  seed : int;
  profile : string;
  strategy : string option;  (** echoes of the config, for the envelope *)
  events : int;  (** history length *)
  applied : int;  (** the session's {!Dsim.Api.stats} [events] *)
  rejected : int;
      (** the session's [rejected]: engine refusals + injected parse
          failures *)
  injected_checks : int;
  injected_fired : int;
  min_worst_available : int;
      (** the lowest greedy worst-case availability seen across the run
          (-1 when no event applied) *)
  final_live : int;
  final_available : int;
  final_lower_bound : int;
  violation : violation option;  (** the first violation, if any *)
}

val default_history : config -> Dsim.Event.t list
(** The history {!run} executes when none is passed:
    {!Profile.generate} at the config's seed/steps/cadence. *)

val run : ?history:Dsim.Event.t list -> config -> outcome
(** Execute one simulation.  Stops at the first invariant violation
    (state after the violating event is reported in the outcome).
    Injected faults and engine refusals are counted, never fatal. *)

val sweep : ?pool:Engine.Pool.t -> config array -> outcome array
(** {!run} over every config; with a pool the runs fan out via
    {!Engine.Pool.parallel_map} (outcome order follows config order, so
    the result is bit-identical at any pool size). *)
