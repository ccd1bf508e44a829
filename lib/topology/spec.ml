let max_nodes = 1_000_000

let valid_name s =
  String.length s > 0
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
       s

let parse_component comp =
  match String.index_opt comp ':' with
  | None ->
      Error
        (Printf.sprintf "component %S must be NAME:COUNT (e.g. rack:4)" comp)
  | Some i ->
      let name = String.sub comp 0 i in
      let count = String.sub comp (i + 1) (String.length comp - i - 1) in
      if not (valid_name name) then
        Error
          (Printf.sprintf
             "component %S has an invalid level name (want [A-Za-z][A-Za-z0-9_-]*)"
             comp)
      else begin
        match int_of_string_opt count with
        | Some c when c >= 1 -> Ok (name, c)
        | _ ->
            Error
              (Printf.sprintf "component %S must have an integer COUNT >= 1"
                 comp)
      end

let parse s =
  if String.trim s = "" then
    Error "empty topology spec; want NAME:COUNT[/NAME:COUNT...] (e.g. zone:2/rack:4/node:8)"
  else begin
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | comp :: rest -> (
          match parse_component comp with
          | Ok c -> go (c :: acc) rest
          | Error _ as e -> e)
    in
    match go [] (String.split_on_char '/' (String.trim s)) with
    | Error _ as e -> e
    | Ok components ->
        let names = List.map fst components in
        if List.length (List.sort_uniq compare names) <> List.length names then
          Error
            (Printf.sprintf "duplicate level name in topology spec %S" s)
        else begin
          let n = List.fold_left (fun acc (_, c) -> acc * c) 1 components in
          if n > max_nodes then
            Error
              (Printf.sprintf
                 "topology spec %S describes %d nodes, over the %d-node cap" s n
                 max_nodes)
          else Ok (Build.nested components)
        end
  end

let parse_exn s =
  match parse s with
  | Ok t -> t
  | Error msg -> invalid_arg ("Topology.Spec.parse: " ^ msg)

let summary t =
  let levels =
    List.rev
      (Array.to_list
         (Array.mapi
            (fun l name ->
              Printf.sprintf "%s x%d" name (Tree.domain_count t ~level:l))
            (Tree.level_names t)))
  in
  Printf.sprintf "%d nodes, %d levels: %s" (Tree.n t) (Tree.depth t)
    (String.concat ", " levels)

let domains t ~level ~cap =
  {
    Placement.Spread.domain_of =
      Array.init (Tree.n t) (fun nd -> Tree.domain_of t ~level nd);
    cap;
    level = Tree.level_name t level;
    summary = summary t;
  }

let json t =
  let module J = Telemetry.Json in
  let level l =
    let sizes = Tree.sizes t ~level:l in
    let mn = Array.fold_left min max_int sizes in
    let mx = Array.fold_left max 0 sizes in
    J.Obj
      [
        ("name", J.Str (Tree.level_name t l));
        ("domains", J.Int (Tree.domain_count t ~level:l));
        ("min_size", J.Int mn);
        ("max_size", J.Int mx);
      ]
  in
  let levels =
    List.rev (List.init (Tree.depth t) level)
  in
  J.Obj [ ("nodes", J.Int (Tree.n t)); ("levels", J.List levels) ]
