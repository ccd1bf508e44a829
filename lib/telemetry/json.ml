type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Most strings need no escaping: those come back as they are, with no
   copy. *)
let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* [n]'s decimal digits, as [string_of_int] spells them, written by
   OCaml code rather than by the C runtime's printf.  The digits are
   taken off a non-positive number, so [min_int] needs no special
   case. *)
let rec add_nonpositive b n =
  if n <= -10 then add_nonpositive b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_nonpositive b n
  end
  else add_nonpositive b (-n)

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let to_string ?indent t =
  let buf = Buffer.create 256 in
  let pad level =
    match indent with
    | None -> ()
    | Some w ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (level * w) ' ')
  in
  let rec go level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        Buffer.add_string buf (if Float.is_finite f then float_str f else "null")
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (level + 1);
            go (level + 1) item)
          items;
        pad level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (level + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape key);
            Buffer.add_string buf "\": ";
            go (level + 1) value)
          fields;
        pad level;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf
