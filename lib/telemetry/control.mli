(** Global collection switches and the clock.

    Telemetry is disabled by default: every instrumentation primitive
    ({!Counter.add}, {!Span.time}, ...) starts with one atomic-bool read
    and branches away, so dormant instrumentation costs nanoseconds
    ([profbench/] reports the traced-vs-untraced cost as
    [trace.overhead_pct]).  Tracing is a second, independent switch:
    span *aggregates* are collected whenever telemetry is on, but
    per-call trace events are buffered only when tracing is also on. *)

type kind =
  | Stable
      (** Deterministic aggregate: a function of the work performed,
          never of scheduling — bit-identical at any [-j] (the contract
          §8 of DESIGN.md pins and the determinism suite checks). *)
  | Volatile
      (** Wall-clock or scheduling dependent (durations, per-domain task
          counts, utilization): exported separately, never compared
          across runs. *)

val on : unit -> bool
val set_enabled : bool -> unit

val trace_on : unit -> bool
val set_tracing : bool -> unit
(** Buffer per-call trace events ({!Trace}); implies nothing about
    [set_enabled] — callers normally switch both on together. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds (from [Unix.gettimeofday]); monotone enough
    for span aggregation and Chrome trace timestamps. *)
