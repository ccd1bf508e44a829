(** An immutable rooted tree of hierarchical fault domains
    (node → rack → zone → region), the correlated-failure model of
    Mills et al. (arXiv:1701.01539) grafted onto the paper's cluster.

    A tree partitions the [n] cluster nodes at every level: level [0] is
    always the nodes themselves (singleton domains), higher levels group
    them into progressively coarser units.  Domains at one level are
    disjoint and nest exactly into the domains one level up, so "fail
    any [j] domains at level [l]" is a well-defined restriction of the
    paper's "fail any [k] nodes" adversary.

    Values are immutable after construction and safe to share read-only
    across {!Engine.Pool} domains, like {!Placement.Instance}. *)

type t

val make : ?leaf_name:string -> n:int -> (string * int array) list -> t
(** [make ~n levels] builds a tree over nodes [0..n-1].  [levels] lists
    the interior levels from finest to coarsest as [(name, assign)]
    pairs, where [assign.(nd)] is the (arbitrary, non-negative) domain
    id of node [nd] at that level; ids are normalized to [0..d-1]
    preserving ascending order.  Level 0 (singletons) is implicit and
    named [leaf_name] (default ["node"]).

    @raise Invalid_argument if [n < 1], an [assign] has the wrong
    length or negative ids, level names clash, or a finer level does
    not nest inside the next coarser one. *)

val n : t -> int
(** Number of cluster nodes (leaves). *)

val depth : t -> int
(** Number of levels, including the leaf level; always ≥ 1. *)

val level_name : t -> int -> string
val level_names : t -> string array

val default_level : t -> int
(** The first level above the nodes (the node level on a depth-1
    tree): where domain failures and spread caps act by default. *)

val find_level : t -> string -> int option
(** Level index of a named level. *)

val domain_count : t -> level:int -> int

val members : t -> level:int -> int -> int array
(** [members t ~level d]: the nodes of domain [d], ascending.  The
    returned array is shared with the tree — treat it as read-only. *)

val domain_of : t -> level:int -> int -> int
(** [domain_of t ~level nd]: the domain containing node [nd]. *)

val sizes : t -> level:int -> int array
(** Fresh array of domain sizes at a level. *)

val parent : t -> level:int -> int -> int
(** [parent t ~level d]: the domain at [level + 1] containing domain
    [d].  @raise Invalid_argument at the top level. *)

val uniform : t -> level:int -> int option
(** [Some size] when every domain at the level has the same size. *)
