(** A placement π : O → 2^N (Fig. 1): each of the [b] objects is mapped to
    the set of [r] distinct nodes hosting its replicas. *)

type t = private {
  n : int;  (** number of nodes *)
  r : int;  (** replicas per object *)
  replicas : int array array;
      (** [replicas.(obj)] is the sorted array of the r nodes hosting
          replicas of [obj] *)
  mutable node_csr : Combin.Csr.t option;
      (** memoized flat inverted index; use {!incidence}, never this field *)
}

val make : n:int -> r:int -> int array array -> t
(** Validates every replica set (size r, sorted, distinct, in range).
    @raise Invalid_argument on malformed input. *)

val b : t -> int
(** Number of objects. *)

val incidence : t -> Combin.Csr.t
(** The node → objects inverted index as a flat {!Combin.Csr.t}: row
    [nd] lists the objects with a replica on node [nd], ascending.
    Built by one counting-sort pass over the replica table (no boxed
    intermediate) and memoized, so every {!Kernel.t} over this layout
    shares one off-heap index.  Treat the result as immutable. *)

val loads : t -> int array
(** Replica count per node. *)

val max_load : t -> int

val is_load_balanced : t -> cap:int -> bool
(** Every node hosts at most [cap] replicas (Definition 4's constraint). *)

val failed_objects : t -> s:int -> failed_nodes:int array -> int
(** Number of objects with at least [s] replicas on [failed_nodes]
    (sorted).  The quantity minimized over failure sets in Definition 1. *)

val avail : t -> s:int -> failed_nodes:int array -> int
(** [b t - failed_objects t ~s ~failed_nodes]. *)

val scatter_widths : t -> int array
(** Per node: the number of {e distinct} other nodes co-hosting at least
    one object with it.  Copyset replication's S; for random placements
    it approaches n−1, for design-based placements it is structured. *)

val concat : t list -> t
(** Concatenate the object lists of placements over the same node set.
    @raise Invalid_argument on mismatched [n] or [r]. *)
