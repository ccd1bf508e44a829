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
  match Event.words line with
  | [] -> Ok None
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
  | verb :: args when List.mem verb Event.verbs ->
      Result.map (fun ev -> Some (Apply ev)) (Event.parse_words verb args)
  | cmd :: _ ->
      Error
        (Printf.sprintf
           "unknown request %S (expected an event — %s — or query \
            worst/avail/lower-bound, advise create, or stats)"
           cmd
           (String.concat ", " Event.verbs))

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
(* Response codec: one placement/v1 envelope per response, written
   straight into a fresh buffer in the compact [Telemetry.Json] format:
   a bare comma between members, ": " after each key.  Keys are
   literals, each spelled with the separator before it, so nothing is
   escaped at run time but the two strings that come from outside: the
   event echo and a rejection's message.  {!add_response} writes into
   the caller's buffer (the serve loop keeps one per session); the
   string-returning encoders each take a fresh one, never a shared
   module-level one: sessions run on several domains at once (the dst
   pool). *)

(* The one envelope writer: [command]'s head, then the data object
   whose members [members] writes. *)
let envelope b command members =
  Buffer.add_string b "{\"schema\": \"";
  Buffer.add_string b Placement.Codec.schema;
  Buffer.add_string b "\",\"command\": \"";
  Buffer.add_string b command;
  Buffer.add_string b "\",\"data\": {";
  members b;
  Buffer.add_string b "}}"

(* [write b] in a fresh buffer, as a string. *)
let line write =
  let b = Buffer.create 256 in
  write b;
  Buffer.contents b

let int b key v =
  Buffer.add_string b key;
  J.add_int b v

let str b key s =
  Buffer.add_string b key;
  Buffer.add_char b '"';
  Buffer.add_string b (J.escape s);
  Buffer.add_char b '"'

let ints b key a =
  Buffer.add_string b key;
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      J.add_int b v)
    a;
  Buffer.add_char b ']'

(* The stats object's members: the one spelling of its field list. *)
let stats_members b (st : stats) =
  int b "\"requests\": " st.requests;
  int b ",\"events\": " st.events;
  int b ",\"parse_errors\": " st.parse_errors;
  int b ",\"rejected\": " st.rejected;
  int b ",\"creates\": " st.creates;
  int b ",\"deletes\": " st.deletes;
  int b ",\"node_fails\": " st.node_fails;
  int b ",\"node_recovers\": " st.node_recovers;
  int b ",\"domain_fails\": " st.domain_fails;
  int b ",\"joins\": " st.joins;
  int b ",\"leaves\": " st.leaves;
  int b ",\"measures\": " st.measures;
  int b ",\"moved_replicas\": " st.moved_replicas;
  int b ",\"live\": " st.live;
  int b ",\"available\": " st.available;
  int b ",\"failed_nodes\": " st.failed_nodes;
  int b ",\"nodes_in_service\": " st.nodes_in_service;
  int b ",\"lower_bound\": " st.lower_bound

let add_response b resp =
  (match resp with
  | Applied (step : Churn.step) ->
      envelope b "apply" @@ fun b ->
      int b "\"seq\": " step.Churn.seq;
      str b ",\"event\": " (Event.to_line step.Churn.event);
      int b ",\"moved\": " step.Churn.moved;
      int b ",\"live\": " step.Churn.live;
      int b ",\"available\": " step.Churn.available;
      int b ",\"failed_nodes\": " step.Churn.failed_nodes;
      int b ",\"lower_bound\": " step.Churn.lower_bound
  | Worst_case { k; attack; worst_available; live } ->
      envelope b "query" @@ fun b ->
      int b "\"query\": \"worst\",\"k\": " k;
      ints b ",\"attack\": " attack;
      int b ",\"worst_available\": " worst_available;
      int b ",\"live\": " live
  | Availability { live; available; failed_nodes; nodes_in_service } ->
      envelope b "query" @@ fun b ->
      int b "\"query\": \"avail\",\"live\": " live;
      int b ",\"available\": " available;
      int b ",\"failed_nodes\": " failed_nodes;
      int b ",\"nodes_in_service\": " nodes_in_service
  | Bound { lower_bound; live } ->
      envelope b "query" @@ fun b ->
      int b "\"query\": \"lower-bound\",\"lower_bound\": " lower_bound;
      int b ",\"live\": " live
  | Advice { nodes; live } ->
      envelope b "query" @@ fun b ->
      ints b "\"query\": \"advise-create\",\"nodes\": " nodes;
      int b ",\"live\": " live
  | Stats_report st -> envelope b "stats" @@ fun b -> stats_members b st
  | Rejected { line; message } -> (
      envelope b "error" @@ fun b ->
      match line with
      | Some l ->
          int b "\"line\": " l;
          str b ",\"message\": " message
      | None -> str b "\"message\": " message));
  Buffer.add_char b '\n'

let response_to_line resp =
  let b = Buffer.create 256 in
  add_response b resp;
  Buffer.sub b 0 (Buffer.length b - 1)

(* Serve's two envelopes of its own, around the stats object. *)
let stats_in b st =
  Buffer.add_string b ",\"stats\": {";
  stats_members b st;
  Buffer.add_char b '}'

let snapshot_line ~after_events st =
  line @@ fun b ->
  envelope b "snapshot" @@ fun b ->
  int b "\"after_events\": " after_events;
  stats_in b st

let summary_line ~reason st =
  line @@ fun b ->
  envelope b "summary" @@ fun b ->
  Buffer.add_string b "\"reason\": \"";
  Buffer.add_string b reason;
  Buffer.add_char b '"';
  stats_in b st
