(** A mutable binary min-heap, keyed by float priority.

    Backs the discrete-event loop of the failure/repair simulator
    ({!Dsim.Repair}): events are (time, payload) pairs popped in time
    order. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h priority payload]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority entry; ties in insertion
    order are not guaranteed. *)

val peek : 'a t -> (float * 'a) option
