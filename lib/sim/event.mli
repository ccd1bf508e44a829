(** The unified change vocabulary of the simulation layer.

    One event type covers every way the system changes: node and
    fault-domain outages, node recoveries, object creation/deletion
    (the churn regime of {!Churn}), and labelled measurement pulses.
    {!Scenario} and {!Repair} produce this stream, {!Cluster} consumes
    its infrastructure events, and {!Churn} replays it against a live
    adaptive placement; see DESIGN.md §12. *)

type t =
  | Node_fail of int  (** one node goes down *)
  | Node_recover of int  (** one node comes back *)
  | Node_join of int  (** a previously-left node re-enters service *)
  | Node_leave of int
      (** permanent departure: the node's replicas are re-placed
          elsewhere (bounded movement, see {!Churn.apply}) *)
  | Domain_fail of int * int
      (** [Domain_fail (level, d)]: every node of domain [d] at tree
          level [level] goes down *)
  | Object_create  (** a new object enters; ids are assigned
          sequentially by the consumer *)
  | Object_delete of int  (** object [id] leaves *)
  | Measure of string  (** record a labelled observation *)

val describe : t -> string

val to_line : t -> string
(** The one-line file spelling: [fail 3], [recover 3],
    [fail-domain 1 0], [join 3], [leave 3], [create], [delete 17],
    [measure LABEL]. *)

val verbs : string list
(** The event verbs accepted by {!parse_line}, in the order quoted by
    its unknown-verb error. *)

val words : string -> string list
(** A line's space-separated words, trimmed, empty ones dropped; [[]]
    exactly when the line is blank or a [#] comment.  The one splitter
    of the line formats: {!parse_line} and [Api.parse_request] both
    split here. *)

val parse_words : string -> string list -> (t, string) result
(** [parse_words verb args] parses the words of one non-blank line, as
    {!words} splits it, with the same errors as {!parse_line}. *)

val parse_line : string -> (t option, string) result
(** Parse one line of an event file.  [Ok None] on a blank line or a
    [#] comment; [Error msg] carries a single actionable sentence. *)

val parse_string : string -> (t list, int * string) result
(** Parse a whole event file.  The error carries the 1-based line
    number of the first malformed line. *)

val format_error : file:string -> int * string -> string
(** [format_error ~file (lineno, msg)] is the canonical one-line
    [FILE:LINE: msg] spelling used by the CLI for event-file errors. *)

val seeded :
  rng:Combin.Rng.t ->
  n:int ->
  ?initial:int ->
  ?join_weight:int ->
  ?leave_weight:int ->
  count:int ->
  measure_every:int ->
  unit ->
  t list
(** A deterministic synthetic churn trace of [count] events over [n]
    nodes: create-biased object churn (ids sequential from [initial],
    which declares how many objects the consumer already holds) mixed
    with node failures and recoveries, every event valid by
    construction (deletes name live ids, failures hit up nodes).  When
    [measure_every > 0], a [Measure "t<i>"] pulse follows every
    [measure_every]-th event (so the returned list is slightly longer
    than [count]).  [join_weight]/[leave_weight] (default 0) admit
    [Node_join]/[Node_leave] events in proportion to the base 100-draw
    range; with both 0 the stream is byte-identical to the historical
    generator.  Leaves keep at least n − max(1, n/4) nodes in service;
    joins only name nodes that previously left.  Same arguments, same
    stream. *)
