(** Process resource gauges (Linux, via [/proc/self/status]).

    One sample point today: the peak resident set size, the memory
    headline of the CLI [--metrics] envelope.  Peak RSS is scheduling- and
    allocator-dependent, so the gauge is {!Control.Volatile} — reported,
    never compared across runs. *)

val peak_rss_kb : unit -> int option
(** [VmHWM] from [/proc/self/status] in kilobytes; [None] where procfs
    is absent (non-Linux) or unparsable.  Reads afresh on every call. *)

val sample : unit -> unit
(** Record the current peak RSS into the ["process/peak_rss_kb"] gauge.
    A no-op while telemetry is disabled or when {!peak_rss_kb} is
    [None] — call it {e before} switching telemetry off when closing an
    envelope. *)
