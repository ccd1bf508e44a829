module J = Telemetry.Json

let sp_request = Telemetry.Registry.span "sim/api/request"

(* Fault-injection sites (armed only under the dst harness): a worst-case
   query spuriously refused before touching the engine, and a request
   line truncated in flight — both must surface as [Rejected], never as
   an exception or a state change. *)
let inj_rescore = Inject.register "dst/rescore"
let inj_io_partial = Inject.register "dst/io_partial_line"

type query = Worst of int option | Avail | Lower_bound | Advise_create
type request = Apply of Event.t | Query of query | Stats

type stats = {
  requests : int;
  events : int;
  parse_errors : int;
  rejected : int;
  creates : int;
  deletes : int;
  node_fails : int;
  node_recovers : int;
  domain_fails : int;
  joins : int;
  leaves : int;
  measures : int;
  moved_replicas : int;
  live : int;
  available : int;
  failed_nodes : int;
  nodes_in_service : int;
  lower_bound : int;
}

type response =
  | Applied of Churn.step
  | Worst_case of {
      k : int;
      attack : int array;
      worst_available : int;
      live : int;
    }
  | Availability of {
      live : int;
      available : int;
      failed_nodes : int;
      nodes_in_service : int;
    }
  | Bound of { lower_bound : int; live : int }
  | Advice of { nodes : int array; live : int }
  | Stats_report of stats
  | Rejected of { line : int option; message : string }

type session = {
  engine : Churn.t;
  mutable requests : int;
  mutable parse_errors : int;
  mutable rejected : int;
  mutable creates : int;
  mutable deletes : int;
  mutable node_fails : int;
  mutable node_recovers : int;
  mutable domain_fails : int;
  mutable joins : int;
  mutable leaves : int;
  mutable measures : int;
}

let make engine =
  {
    engine;
    requests = 0;
    parse_errors = 0;
    rejected = 0;
    creates = 0;
    deletes = 0;
    node_fails = 0;
    node_recovers = 0;
    domain_fails = 0;
    joins = 0;
    leaves = 0;
    measures = 0;
  }

let engine s = s.engine

let stats s =
  {
    requests = s.requests;
    events = Churn.events s.engine;
    parse_errors = s.parse_errors;
    rejected = s.rejected;
    creates = s.creates;
    deletes = s.deletes;
    node_fails = s.node_fails;
    node_recovers = s.node_recovers;
    domain_fails = s.domain_fails;
    joins = s.joins;
    leaves = s.leaves;
    measures = s.measures;
    moved_replicas = Churn.moved_replicas s.engine;
    live = Churn.live s.engine;
    available = Churn.available s.engine;
    failed_nodes = Churn.failed_count s.engine;
    nodes_in_service = Churn.nodes_in_service s.engine;
    lower_bound = Churn.lower_bound s.engine;
  }

(* ------------------------------------------------------------------ *)
(* Request codec: the event line vocabulary plus the read-side verbs. *)

let parse_request line =
  let line =
    if Inject.fire inj_io_partial then
      String.sub line 0 (String.length line / 2)
    else line
  in
  let trimmed = String.trim line in
  if trimmed = "" || (trimmed <> "" && trimmed.[0] = '#') then Ok None
  else
    let words =
      String.split_on_char ' ' trimmed |> List.filter (fun w -> w <> "")
    in
    match words with
    | "query" :: rest -> (
        match rest with
        | [ "worst" ] -> Ok (Some (Query (Worst None)))
        | [ "worst"; k ] -> (
            match int_of_string_opt k with
            | Some k -> Ok (Some (Query (Worst (Some k))))
            | None ->
                Error
                  (Printf.sprintf "query worst expects an integer budget, \
                                   got %S" k))
        | [ "avail" ] -> Ok (Some (Query Avail))
        | [ "lower-bound" ] -> Ok (Some (Query Lower_bound))
        | _ ->
            Error
              "query expects worst [K], avail or lower-bound (e.g. \"query \
               worst 3\")")
    | "advise" :: rest -> (
        match rest with
        | [ "create" ] -> Ok (Some (Query Advise_create))
        | _ -> Error "advise expects create (e.g. \"advise create\")")
    | [ "stats" ] -> Ok (Some Stats)
    | "stats" :: _ -> Error "stats takes no arguments"
    | first :: _ when List.mem first Event.verbs -> (
        match Event.parse_line trimmed with
        | Ok None -> Ok None
        | Ok (Some ev) -> Ok (Some (Apply ev))
        | Error msg -> Error msg)
    | cmd :: _ ->
        Error
          (Printf.sprintf
             "unknown request %S (expected an event — %s — or query \
              worst/avail/lower-bound, advise create, or stats)"
             cmd
             (String.concat ", " Event.verbs))
    | [] -> assert false

let request_to_line = function
  | Apply ev -> Event.to_line ev
  | Query (Worst None) -> "query worst"
  | Query (Worst (Some k)) -> Printf.sprintf "query worst %d" k
  | Query Avail -> "query avail"
  | Query Lower_bound -> "query lower-bound"
  | Query Advise_create -> "advise create"
  | Stats -> "stats"

(* ------------------------------------------------------------------ *)
(* Execution: the single entry point into the engine.  Engine
   rejections surface as a [Rejected] response, never an exception —
   an online session must survive bad requests. *)

let count_event s = function
  | Event.Object_create -> s.creates <- s.creates + 1
  | Event.Object_delete _ -> s.deletes <- s.deletes + 1
  | Event.Node_fail _ -> s.node_fails <- s.node_fails + 1
  | Event.Node_recover _ -> s.node_recovers <- s.node_recovers + 1
  | Event.Domain_fail _ -> s.domain_fails <- s.domain_fails + 1
  | Event.Node_join _ -> s.joins <- s.joins + 1
  | Event.Node_leave _ -> s.leaves <- s.leaves + 1
  | Event.Measure _ -> s.measures <- s.measures + 1

let reject s message =
  s.rejected <- s.rejected + 1;
  Rejected { line = None; message }

let exec s req =
  Telemetry.Span.time sp_request @@ fun () ->
  s.requests <- s.requests + 1;
  match req with
  | Apply ev -> (
      match Churn.apply s.engine ev with
      | step ->
          count_event s ev;
          Applied step
      | exception Invalid_argument msg -> reject s msg)
  | Query (Worst k) ->
      if Inject.fire inj_rescore then
        reject s
          "injected fault at dst/rescore: worst-case query refused (engine \
           state untouched)"
      else begin
        let kq = Option.value ~default:(Churn.k s.engine) k in
        if kq < 1 || kq > Churn.n s.engine then
          reject s
            (Printf.sprintf
               "query worst %d: the attack budget must be in [1, n = %d]" kq
               (Churn.n s.engine))
        else
          let rs = Churn.rescore ~k:kq s.engine in
          Worst_case
            {
              k = kq;
              attack = rs.Churn.attack;
              worst_available = rs.Churn.worst_available;
              live = Churn.live s.engine;
            }
      end
  | Query Avail ->
      Availability
        {
          live = Churn.live s.engine;
          available = Churn.available s.engine;
          failed_nodes = Churn.failed_count s.engine;
          nodes_in_service = Churn.nodes_in_service s.engine;
        }
  | Query Lower_bound ->
      Bound
        {
          lower_bound = Churn.lower_bound s.engine;
          live = Churn.live s.engine;
        }
  | Query Advise_create -> (
      match Churn.advise_create s.engine with
      | nodes -> Advice { nodes; live = Churn.live s.engine }
      | exception Invalid_argument msg -> reject s msg)
  | Stats -> Stats_report (stats s)

let reject_line s line message =
  s.requests <- s.requests + 1;
  s.rejected <- s.rejected + 1;
  Rejected { line = Some line; message }

let parse_error s line message =
  s.parse_errors <- s.parse_errors + 1;
  reject_line s line message

(* ------------------------------------------------------------------ *)
(* Response codec: one placement/v1 envelope per response. *)

let stats_json (st : stats) =
  J.Obj
    [
      ("requests", J.Int st.requests);
      ("events", J.Int st.events);
      ("parse_errors", J.Int st.parse_errors);
      ("rejected", J.Int st.rejected);
      ("creates", J.Int st.creates);
      ("deletes", J.Int st.deletes);
      ("node_fails", J.Int st.node_fails);
      ("node_recovers", J.Int st.node_recovers);
      ("domain_fails", J.Int st.domain_fails);
      ("joins", J.Int st.joins);
      ("leaves", J.Int st.leaves);
      ("measures", J.Int st.measures);
      ("moved_replicas", J.Int st.moved_replicas);
      ("live", J.Int st.live);
      ("available", J.Int st.available);
      ("failed_nodes", J.Int st.failed_nodes);
      ("nodes_in_service", J.Int st.nodes_in_service);
      ("lower_bound", J.Int st.lower_bound);
    ]

let response_to_json = function
  | Applied (step : Churn.step) ->
      Placement.Codec.json_envelope ~command:"apply"
        (J.Obj
           [
             ("seq", J.Int step.Churn.seq);
             ("event", J.Str (Event.to_line step.Churn.event));
             ("moved", J.Int step.Churn.moved);
             ("live", J.Int step.Churn.live);
             ("available", J.Int step.Churn.available);
             ("failed_nodes", J.Int step.Churn.failed_nodes);
             ("lower_bound", J.Int step.Churn.lower_bound);
           ])
  | Worst_case { k; attack; worst_available; live } ->
      Placement.Codec.json_envelope ~command:"query"
        (J.Obj
           [
             ("query", J.Str "worst");
             ("k", J.Int k);
             ("attack", J.List (Array.to_list (Array.map (fun u -> J.Int u) attack)));
             ("worst_available", J.Int worst_available);
             ("live", J.Int live);
           ])
  | Availability { live; available; failed_nodes; nodes_in_service } ->
      Placement.Codec.json_envelope ~command:"query"
        (J.Obj
           [
             ("query", J.Str "avail");
             ("live", J.Int live);
             ("available", J.Int available);
             ("failed_nodes", J.Int failed_nodes);
             ("nodes_in_service", J.Int nodes_in_service);
           ])
  | Bound { lower_bound; live } ->
      Placement.Codec.json_envelope ~command:"query"
        (J.Obj
           [
             ("query", J.Str "lower-bound");
             ("lower_bound", J.Int lower_bound);
             ("live", J.Int live);
           ])
  | Advice { nodes; live } ->
      Placement.Codec.json_envelope ~command:"query"
        (J.Obj
           [
             ("query", J.Str "advise-create");
             ( "nodes",
               J.List (Array.to_list (Array.map (fun u -> J.Int u) nodes)) );
             ("live", J.Int live);
           ])
  | Stats_report st ->
      Placement.Codec.json_envelope ~command:"stats" (stats_json st)
  | Rejected { line; message } ->
      Placement.Codec.json_envelope ~command:"error"
        (J.Obj
           ((match line with
            | Some l -> [ ("line", J.Int l) ]
            | None -> [])
           @ [ ("message", J.Str message) ]))

let response_to_line resp = J.to_string (response_to_json resp)
