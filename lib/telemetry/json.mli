(** A minimal JSON document builder (no third-party dependency).

    Only what the telemetry exporters and {!Placement.Codec}'s versioned
    envelope need: construction and deterministic printing.  Object keys
    are emitted in the order given — callers sort when they want sorted
    output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed with [%.6g]; non-finite values as [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-escape the contents (no surrounding quotes): the double
    quote, the backslash and bytes below 0x20; every other byte, UTF-8
    included, passes through.  A string with nothing to escape is
    returned itself. *)

val add_int : Buffer.t -> int -> unit
(** [add_int b n] appends [string_of_int n] to [b] without the C
    runtime's printf and without allocating: for writers that spell
    JSON straight into a buffer. *)

val to_string : ?indent:int -> t -> string
(** Render; [indent] (spaces per level, e.g. 2) selects pretty-printed
    output with one scalar per line, otherwise compact one-line JSON. *)
