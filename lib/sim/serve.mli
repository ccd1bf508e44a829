(** The long-running daemon shell over {!Api} (DESIGN.md §13).

    {!run} speaks the serve protocol over a pair of file descriptors:
    newline-delimited {!Api} requests in, one single-line
    [placement/v1] envelope out per request, a [snapshot] envelope
    every [snapshot_every] applied events, and a final [summary]
    envelope naming why the session ended.  The responses for a given
    request stream are byte-identical however the bytes arrive (pipe,
    socket, file), which is how `placement-tool serve` and batch
    `churn --responses` are diffable — and deterministic at any [-j]:
    timing only decides {e when} the session ends, never what a
    response contains.

    Robustness: parse errors are answered inline (with their 1-based
    line number) and never kill the session; so is a request line
    longer than 65,536 bytes, which is refused as
    [request line exceeds 65536 bytes; discarded] and dropped through
    its newline without being buffered; an idle [timeout] ends it
    gracefully; a delivered SIGTERM/SIGINT (see {!install_signals})
    stops reading, flushes, and still emits the summary; [max_events]
    caps how many events the session will apply.

    Every request — parsed, refused, or overlong — is counted once, in
    the {!Api.session}'s ledger ({!Api.stats}); the serve loop keeps no
    request counters of its own. *)

type reason =
  | Eof  (** the peer closed the stream (or vanished mid-write) *)
  | Signal  (** SIGTERM/SIGINT delivered — graceful drain *)
  | Timeout  (** nothing arrived for [timeout] seconds *)
  | Max_events  (** the [max_events] guard rail tripped *)

val reason_label : reason -> string
(** The summary-envelope spelling: [eof], [signal], [timeout],
    [max-events]. *)

type outcome = {
  reason : reason;
  responses : int;
      (** lines written, snapshots included, the summary not; request
          counts are the session's ({!Api.stats}) *)
}

val install_signals : unit -> unit
(** Route SIGTERM/SIGINT to the serve stop flag (idempotent; also
    ignores SIGPIPE so a vanished peer reads as EPIPE).  Call once in
    the daemon entry point, {e not} from library code — tests drive
    {!run} without it. *)

val stop_requested : unit -> bool
(** Whether a routed signal has been delivered. *)

val run :
  ?max_events:int ->
  ?snapshot_every:int ->
  ?timeout:float ->
  Api.session ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  outcome
(** Serve one session over [input]/[output] until EOF, signal, idle
    timeout ([timeout] ≤ 0 means wait forever, the default), or the
    [max_events] cap.  A trailing unterminated line is still processed
    at EOF.  The session object survives the call — a socket daemon
    can serve successive connections against the same engine. *)
