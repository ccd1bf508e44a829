(** Compact textual topology specs and JSON summaries.

    The grammar is [NAME:COUNT(/NAME:COUNT)*], coarsest level first,
    with the last component counting leaves per deepest interior
    domain — e.g. ["zone:2/rack:4/node:8"] is 2 zones × 4 racks × 8
    nodes = 64 nodes.  Parsing follows {!Placement.Codec}'s
    conventions: a [result] with a one-line, actionable error message
    naming the offending component. *)

val parse : string -> (Tree.t, string) result
(** Parse a spec.  Counts must be ≥ 1, names distinct (a letter
    followed by letters, digits, underscores or dashes); the total node
    count is capped at 1,000,000. *)

val parse_exn : string -> Tree.t
(** @raise Invalid_argument with the {!parse} error message. *)

val summary : Tree.t -> string
(** One line, e.g. ["30 nodes, 3 levels: zone x2, rack x6, node x30"]. *)

val domains : Tree.t -> level:int -> cap:int -> Placement.Spread.domains
(** The tree's domains at [level] as the plain map a
    {!Placement.Instance} carries, at most [cap] replicas per domain;
    its [summary] is {!summary}.  [domains (parse_exn "node:n") ~level:0
    ~cap:1] is {!Placement.Instance}'s default map.
    @raise Invalid_argument on a level out of range. *)

val json : Tree.t -> Telemetry.Json.t
(** [{"nodes": n, "levels": [{"name", "domains", "min_size",
    "max_size"} ...]}], coarsest level first — the [--json] payload of
    the CLI's [topology] subcommand. *)
