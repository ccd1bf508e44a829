(** The versioned request/response surface of the continuous placement
    engine (DESIGN.md §13).

    Every consumer of {!Churn} goes through this one vocabulary: the
    batch [churn] replay and the online [serve] daemon both parse
    newline-delimited requests with {!parse_request}, execute them with
    {!exec} against a {!session}, and emit each {!response} as a
    single-line [placement/v1] envelope via {!response_to_line} — which
    is how "serve over a pipe" and "batch replay" stay byte-identical.

    A request is an event to apply, a read-only query, or a stats
    probe.  Engine rejections (out-of-range node, unknown object id,
    join/leave misuse) surface as [Rejected] responses, never
    exceptions: an online session survives bad requests. *)

type query =
  | Worst of int option
      (** worst-case availability under a greedy k-node attack;
          [None] uses the session's configured k *)
  | Avail  (** current availability under the live failure set *)
  | Lower_bound  (** the live Lemma-3 guarantee *)
  | Advise_create
      (** the nodes the next create {e would} be assigned, without
          committing — external systems stage moves before applying *)

type request = Apply of Event.t | Query of query | Stats

type stats = {
  requests : int;  (** requests processed, including rejected ones *)
  events : int;  (** events applied by the engine *)
  parse_errors : int;
  rejected : int;  (** parse errors + engine rejections *)
  creates : int;
  deletes : int;
  node_fails : int;
  node_recovers : int;
  domain_fails : int;
  joins : int;
  leaves : int;
  measures : int;
  moved_replicas : int;
  live : int;
  available : int;
  failed_nodes : int;
  nodes_in_service : int;
  lower_bound : int;
}

type response =
  | Applied of Churn.step
  | Worst_case of {
      k : int;
      attack : int array;
      worst_available : int;
      live : int;
    }
  | Availability of {
      live : int;
      available : int;
      failed_nodes : int;
      nodes_in_service : int;
    }
  | Bound of { lower_bound : int; live : int }
  | Advice of { nodes : int array; live : int }
      (** answer to [advise create]: the sorted replica set the next
          create would land on ({!Churn.advise_create}); guaranteed to
          match the create's actual assignment if applied next *)
  | Stats_report of stats
  | Rejected of { line : int option; message : string }

type session
(** A {!Churn.t} plus the one request ledger: every request — executed,
    refused by the engine or by session policy, or unparsable — is
    counted here exactly once, by {!exec}, {!parse_error} or
    {!reject_line}, and {!stats} reads these counts.  Nothing else
    (the serve loop, the dst harness, telemetry) keeps a request counter
    of its own; the one request-level telemetry entry is the
    [sim/api/request] span around {!exec}. *)

val make : Churn.t -> session
val engine : session -> Churn.t
val stats : session -> stats

val parse_request : string -> (request option, string) result
(** One line: an event in {!Event.parse_line}'s spelling, or
    [query worst [K]] / [query avail] / [query lower-bound] /
    [advise create] / [stats].  [Ok None] on a blank line or [#]
    comment. *)

val request_to_line : request -> string
(** The canonical one-line spelling (inverse of {!parse_request}). *)

val exec : session -> request -> response
(** Execute one request.  Never raises on engine rejection — the
    refusal comes back as [Rejected] and is counted in {!stats}. *)

val parse_error : session -> int -> string -> response
(** Account an unparsable line (1-based number) and build its inline
    [Rejected] response, so the session continues. *)

val reject_line : session -> int -> string -> response
(** Like {!parse_error} for a line refused by session policy (an event
    past the daemon's cap, a line over the daemon's length bound) —
    counted as rejected but not as a parse error. *)

val stats_json : stats -> Telemetry.Json.t

val response_to_json : response -> Telemetry.Json.t
(** The response's [placement/v1] envelope: command [apply], [query],
    [stats] or [error]. *)

val response_to_line : response -> string
(** {!response_to_json} rendered compact (single line, no trailing
    newline) — the wire format of the serve protocol. *)
