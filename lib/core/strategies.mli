(** The built-in placement families as {!Strategy.S} modules: [adaptive],
    [combo], [copyset], [optimal], [random], [random-spread], [simple]
    and [simple-spread]. *)

val all : (module Strategy.S) list
(** Every family, in name order. *)

val names : string list
(** The names of {!all}, sorted. *)

val find : string -> (module Strategy.S) option

val display_name : (module Strategy.S) -> string
(** Capitalized name, e.g. ["Combo"] — the spelling the CLI's report
    lines use. *)
