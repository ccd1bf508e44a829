(** A monotonically increasing integer cell shared between domains: the
    incumbent ("best so far") of a branch-and-bound search.

    Reads and writes are atomic and lock-free.  The determinism
    discipline (DESIGN.md §2/§15) admits two uses.  Either a cell is
    read only before a parallel batch is dispatched or after it
    completes (a mid-batch read sees a timing-dependent value); or tasks
    do read it mid-batch, but only as a {e conservative pruning bound}
    whose every observed value is ≤ the true optimum — then the set of
    nodes a task explores varies with timing, while the task's reported
    result does not, provided no tie the result depends on is pruned
    ({!Placement.Bb} stores the value keyed by a tie-break, so only
    ties that lose the merge anyway are cut).  Publishing improvements
    from inside tasks is always safe: the cell only tightens. *)

type t

val create : int -> t
(** [create v] is a cell holding [v]. *)

val get : t -> int

val improve : t -> int -> bool
(** [improve t v] raises the cell to [v] if [v] is strictly greater than
    the current value.  Returns [true] iff the cell changed.  The cell
    never decreases. *)
