type t =
  | Node_fail of int
  | Node_recover of int
  | Node_join of int
  | Node_leave of int
  | Domain_fail of int * int
  | Object_create
  | Object_delete of int
  | Measure of string

let describe = function
  | Node_fail nd -> Printf.sprintf "fail node %d" nd
  | Node_recover nd -> Printf.sprintf "recover node %d" nd
  | Node_join nd -> Printf.sprintf "join node %d" nd
  | Node_leave nd -> Printf.sprintf "leave node %d" nd
  | Domain_fail (level, d) -> Printf.sprintf "fail level-%d domain %d" level d
  | Object_create -> "create object"
  | Object_delete id -> Printf.sprintf "delete object %d" id
  | Measure label -> Printf.sprintf "measure %S" label

(* A buffer holding [verb], a space and [n]'s digits. *)
let spell verb n =
  let b = Buffer.create 24 in
  Buffer.add_string b verb;
  Buffer.add_char b ' ';
  Telemetry.Json.add_int b n;
  b

let to_line = function
  | Node_fail nd -> Buffer.contents (spell "fail" nd)
  | Node_recover nd -> Buffer.contents (spell "recover" nd)
  | Node_join nd -> Buffer.contents (spell "join" nd)
  | Node_leave nd -> Buffer.contents (spell "leave" nd)
  | Domain_fail (level, d) ->
      let b = spell "fail-domain" level in
      Buffer.add_char b ' ';
      Telemetry.Json.add_int b d;
      Buffer.contents b
  | Object_create -> "create"
  | Object_delete id -> Buffer.contents (spell "delete" id)
  | Measure label -> if label = "" then "measure" else "measure " ^ label

let verbs =
  [ "fail"; "recover"; "fail-domain"; "join"; "leave"; "create"; "delete";
    "measure" ]

(* One event per line, [to_line]'s spelling: its space-separated words,
   none for a blank line or a #-comment.  [Api.parse_request] splits its
   request lines here too, so each line is trimmed and split once. *)
let words line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then []
  else String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

(* Errors are single actionable sentences — the CLI prefixes them with
   FILE:LINE. *)
let parse_words verb args =
  let int_arg ~what v k =
    match int_of_string_opt v with
    | Some i -> k i
    | None -> Error (Printf.sprintf "%s expects an integer, got %S" what v)
  in
  match (verb, args) with
  | "fail", [ nd ] ->
      int_arg ~what:"fail" nd (fun nd -> Ok (Node_fail nd))
  | "fail", _ -> Error "fail expects exactly one node id (e.g. \"fail 3\")"
  | "recover", [ nd ] ->
      int_arg ~what:"recover" nd (fun nd -> Ok (Node_recover nd))
  | "recover", _ ->
      Error "recover expects exactly one node id (e.g. \"recover 3\")"
  | "join", [ nd ] -> int_arg ~what:"join" nd (fun nd -> Ok (Node_join nd))
  | "join", _ -> Error "join expects exactly one node id (e.g. \"join 3\")"
  | "leave", [ nd ] ->
      int_arg ~what:"leave" nd (fun nd -> Ok (Node_leave nd))
  | "leave", _ -> Error "leave expects exactly one node id (e.g. \"leave 3\")"
  | "fail-domain", [ level; d ] ->
      int_arg ~what:"fail-domain" level (fun level ->
          int_arg ~what:"fail-domain" d (fun d -> Ok (Domain_fail (level, d))))
  | "fail-domain", _ ->
      Error
        "fail-domain expects a level and a domain id (e.g. \
         \"fail-domain 1 0\")"
  | "create", [] -> Ok Object_create
  | "create", _ -> Error "create takes no arguments"
  | "delete", [ id ] ->
      int_arg ~what:"delete" id (fun id -> Ok (Object_delete id))
  | "delete", _ ->
      Error "delete expects exactly one object id (e.g. \"delete 17\")"
  | "measure", rest -> Ok (Measure (String.concat " " rest))
  | cmd, _ ->
      Error
        (Printf.sprintf
           "unknown event %S (expected fail, recover, fail-domain, join, \
            leave, create, delete or measure)"
           cmd)

let parse_line line =
  match words line with
  | [] -> Ok None
  | verb :: args -> Result.map Option.some (parse_words verb args)

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line line with
        | Ok None -> go (lineno + 1) acc rest
        | Ok (Some ev) -> go (lineno + 1) (ev :: acc) rest
        | Error msg -> Error (lineno, msg))
  in
  go 1 [] lines

let format_error ~file (lineno, msg) =
  Printf.sprintf "%s:%d: %s" file lineno msg

(* ------------------------------------------------------------------ *)
(* Seeded synthetic churn.

   The generator tracks its own shadow of the engine state — the live
   object ids (the engine hands them out sequentially from [initial])
   and the node up/down set — so every emitted event is valid by
   construction: deletes name a live id, fails hit an up node, recovers
   a down one.  Create-biased so the population grows over the trace.
   Join/leave are opt-in via weights (default 0): the draw range grows
   to 100 + join_weight + leave_weight, so with both weights 0 the rng
   consumption — and hence the stream — is byte-identical to the
   original generator.  Left nodes are shadowed as up-but-out-of-service
   so the fail/recover samplers skip them; leaves are throttled so at
   least n - max(1, n/4) nodes stay in service (keeping placement
   capacity for reasonable r).

   Pure function of (rng, n, initial, count, measure_every, weights). *)
let seeded ~rng ~n ?(initial = 0) ?(join_weight = 0) ?(leave_weight = 0) ~count
    ~measure_every () =
  if n < 1 then invalid_arg "Event.seeded: need at least one node";
  if initial < 0 || count < 0 then
    invalid_arg "Event.seeded: negative event count";
  if join_weight < 0 || leave_weight < 0 then
    invalid_arg "Event.seeded: negative join/leave weight";
  let live = ref (Array.init (max 16 initial) Fun.id) in
  let nlive = ref initial in
  let next_id = ref initial in
  let up = Array.make n true in
  let ndown = ref 0 in
  let inserv = Array.make n true in
  let ninserv = ref n in
  let floor_inserv = n - max 1 (n / 4) in
  let out = ref [] in
  let emit ev = out := ev :: !out in
  let create () =
    if !nlive = Array.length !live then begin
      let grown = Array.make (2 * !nlive) 0 in
      Array.blit !live 0 grown 0 !nlive;
      live := grown
    end;
    !live.(!nlive) <- !next_id;
    incr nlive;
    incr next_id;
    emit Object_create
  in
  for i = 1 to count do
    let d = Combin.Rng.int rng (100 + join_weight + leave_weight) in
    if
      d < 55
      || (d < 70 && !nlive = 0)
      || (d >= 85 && d < 100 && !ndown = 0)
      || (d >= 100 && d < 100 + leave_weight && !ninserv <= floor_inserv)
      || (d >= 100 + leave_weight && !ninserv = n)
    then create ()
    else if d < 70 then begin
      let slot = Combin.Rng.int rng !nlive in
      emit (Object_delete !live.(slot));
      decr nlive;
      !live.(slot) <- !live.(!nlive)
    end
    else if d < 85 && !ndown < !ninserv then begin
      (* Rejection-sample an up in-service node: deterministic given the
         rng (left nodes shadow as up, so the extra check is free when
         no node has left). *)
      let nd = ref (Combin.Rng.int rng n) in
      while not (up.(!nd) && inserv.(!nd)) do nd := Combin.Rng.int rng n done;
      up.(!nd) <- false;
      incr ndown;
      emit (Node_fail !nd)
    end
    else if d < 100 then begin
      (* Recover the [pick]-th currently-down node (ascending scan). *)
      let pick = ref (Combin.Rng.int rng !ndown) in
      let nd = ref 0 in
      while up.(!nd) || !pick > 0 do
        if not up.(!nd) then decr pick;
        incr nd
      done;
      up.(!nd) <- true;
      decr ndown;
      emit (Node_recover !nd)
    end
    else if d < 100 + leave_weight then begin
      (* Permanent leave of an in-service node (up or down). *)
      let nd = ref (Combin.Rng.int rng n) in
      while not inserv.(!nd) do nd := Combin.Rng.int rng n done;
      if not up.(!nd) then begin
        (* A down node that leaves stops counting as failed. *)
        up.(!nd) <- true;
        decr ndown
      end;
      inserv.(!nd) <- false;
      decr ninserv;
      emit (Node_leave !nd)
    end
    else begin
      (* Re-join the [pick]-th left node (ascending scan); it returns
         up with an empty replica row. *)
      let pick = ref (Combin.Rng.int rng (n - !ninserv)) in
      let nd = ref 0 in
      while inserv.(!nd) || !pick > 0 do
        if not inserv.(!nd) then decr pick;
        incr nd
      done;
      inserv.(!nd) <- true;
      incr ninserv;
      emit (Node_join !nd)
    end;
    if measure_every > 0 && i mod measure_every = 0 then
      emit (Measure (Printf.sprintf "t%d" i))
  done;
  List.rev !out
