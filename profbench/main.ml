(* The layered profile benchmark of the placement daemon and the offline
   adversary.

   Usage:
     main.exe profile WORKLOAD [--seed N] [--seconds S] [--trace]
     main.exe --workload WORKLOAD --seed N --seconds S --trace 0|1

   Workloads: ingest, outage, worst_query (the daemon's request path
   as a closed loop, one client, zero think time) and attack (the
   offline adversary).  An untraced run prints the end-to-end metrics;
   a traced run (--trace / --trace 1) prints the per-layer metrics,
   which come from a second, instrumented pass after an untraced one.
   The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}.  The exit code is 1 when any
   correctness check fails.  See README.md in this directory. *)

open Profbench

let setups = 3

(* Response digests at seed 1 and the default run length: a change to
   any response byte changes them. *)
let pinned_seed = 1
let pinned_seconds = 10

let pinned = function
  | Workload.Ingest -> 0x7ad707aae48aa7f2
  | Workload.Outage -> 0x26eb08d66b6b5352
  | Workload.Worst_query -> 0x5e68baa349d5db33
  | Workload.Attack -> 0x6ba1016138654c2c

let e2e =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("key_p50_us", "us");
    ("peak_rss_mb", "MB");
  ]

let serve_kinds =
  [ "create"; "delete"; "fail"; "recover"; "fail_domain"; "leave"; "join";
    "worst"; "avail"; "lower_bound"; "advise" ]

let per_layer =
  [ ("adaptive.route_ns", "ns"); ("adaptive.route_p99_ns", "ns");
    ("api.parse_ns", "ns"); ("api.render_ns", "ns"); ("serve.write_ns", "ns") ]
  @ List.concat_map
      (fun kd ->
        [ ("api.exec_p50_ns." ^ kd, "ns"); ("api.exec_p99_ns." ^ kd, "ns") ])
      serve_kinds
  @ [
      ("churn.apply_ns", "ns");
      ("churn.rescore_ns", "ns");
      ("dyn.rescore_evals_per_query", "count");
      ("dyn.rescore_heap_pops_per_query", "count");
      ("churn.moved_replicas_per_event", "count");
      ("gc.minor_words_per_req", "words");
      ("gc.promoted_words_per_req", "words");
      ("gc.major_collections", "count");
      ("kernel.make_s", "s");
      ("kernel.greedy_s", "s");
      ("kernel.greedy_evals", "count");
      ("kernel.greedy_heap_pops", "count");
      ("kernel.greedy_stale_reevals", "count");
      ("bb.search_s", "s");
      ("bb.nodes", "count");
      ("bb.leaves", "count");
      ("bb.prunes", "count");
      ("bb.spawned_tasks", "count");
      ("bb.completions", "count");
      ("topology.exact_s", "s");
      ("topology.bb_nodes", "count");
      ("trace.overhead_pct", "%");
    ]

(* ------------------------------------------------------------------ *)
(* Shared helpers. *)

let secs ns = float_of_int ns /. 1e9

let timed f =
  let t0 = Stats.now_ns () in
  let x = f () in
  (x, Stats.now_ns () - t0)

(* [setups] timed set-ups; returns the last [keep] results (newest
   first) and the set-up times.  Earlier results are dropped and the
   heap compacted before the next set-up, so peak RSS does not depend
   on when the collector reclaims them. *)
let set_up ~keep f =
  let kept = ref [] and times = ref [] in
  for _ = 1 to setups do
    let x, ns = timed f in
    kept := x :: List.filteri (fun i _ -> i < keep - 1) !kept;
    times := secs ns :: !times;
    Gc.compact ()
  done;
  (!kept, !times)

let sum a = Array.fold_left ( + ) 0 a
let per a b = if b = 0 then 0. else a /. float_of_int b

(* Order statistics of a sorted sample, 0 when not reportable. *)
let median_ns s = Option.value ~default:0 (Stats.median s)
let p99_ns s = Option.value ~default:0 (Stats.percentile s 99)

let ops_per_s latency = per (float_of_int (Array.length latency)) (sum latency) *. 1e9

let peak_rss_mb () =
  match Telemetry.Resource.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> 0.

type gc_delta = { minor : float; promoted : float; majors : int }

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let x = f () in
  let g1 = Gc.quick_stat () in
  ( x,
    {
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let with_telemetry f =
  Telemetry.Registry.reset ();
  Telemetry.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Control.set_enabled false) f

let counter path = Telemetry.Counter.value (Telemetry.Registry.counter path)
let span path = Telemetry.Registry.span path

(* Human-readable report lines, printed before the JSON line. *)
let note fmt = Printf.printf (fmt ^^ "\n%!")

let describe name s =
  let show = function
    | Some v -> Printf.sprintf "%.2f us" (float_of_int v /. 1e3)
    | None -> "n/a"
  in
  note "  %-26s p50 %s  p99 %s  (n=%d)" name (show (Stats.median s))
    (show (Stats.percentile s 99)) (Array.length s)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;
  digest : int;
  values : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Serve workloads. *)

let key_kinds = function
  | Workload.Ingest -> [ "create" ]
  | Workload.Outage -> [ "fail"; "recover"; "fail_domain" ]
  | Workload.Worst_query -> [ "worst" ]
  | Workload.Attack -> []

let serve w ~seed ~seconds ~trace =
  let spec = Workload.spec ~seconds w in
  let script = Workload.script w ~seed spec in
  let sessions, setup_times =
    set_up ~keep:(if trace then 2 else 1) (fun () -> Workload.session w spec)
  in
  let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let problems = ref [] in
  let measure ~traced session =
    let engine = Dsim.Api.engine session in
    let moved0 = Dsim.Churn.moved_replicas engine
    and events0 = Dsim.Churn.events engine in
    let pass, gc = gc_delta (fun () -> Loop.run ~traced session ~out script) in
    let moved = Dsim.Churn.moved_replicas engine - moved0
    and events = Dsim.Churn.events engine - events0 in
    (match Dsim.Churn.check engine with
    | () -> ()
    | exception Failure msg -> problems := msg :: !problems);
    if pass.Loop.rejected > 0 then
      problems :=
        Printf.sprintf "%d of %d requests rejected" pass.Loop.rejected pass.Loop.ops
        :: !problems;
    (pass, gc, per (float_of_int moved) events)
  in
  let plain, gc, moved_per_event = measure ~traced:false (List.hd sessions) in
  (* The traced pass starts from a compacted heap, as the untraced one did. *)
  if trace then Gc.compact ();
  let of_kinds names =
    let idx = List.map Loop.kind_index names in
    fun kd -> List.mem kd idx
  in
  let latency = Stats.sorted plain.Loop.latency_ns in
  let key = Stats.sorted (Loop.select plain plain.Loop.latency_ns (of_kinds (key_kinds w))) in
  let counts = Array.make (Array.length Loop.kinds) 0 in
  Bytes.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) plain.Loop.kind;
  note "requests: %d (%s)" plain.Loop.ops
    (String.concat ", "
       (List.filter_map
          (fun kd ->
            let c = counts.(Loop.kind_index kd) in
            if c = 0 then None else Some (Printf.sprintf "%s %d" kd c))
          serve_kinds));
  describe "request latency" latency;
  describe "key request latency" key;
  let base =
    [
      ("setup_s", Stats.median_float setup_times);
      ("ops_per_s", ops_per_s latency);
      ("key_p50_us", float_of_int (median_ns key) /. 1e3);
      ("peak_rss_mb", peak_rss_mb ());
      ("churn.moved_replicas_per_event", moved_per_event);
      ("gc.minor_words_per_req", per gc.minor plain.Loop.ops);
      ("gc.promoted_words_per_req", per gc.promoted plain.Loop.ops);
      ("gc.major_collections", float_of_int gc.majors);
    ]
  in
  let traced_values, digests_agree, traced_ops, traced_rejected =
    if not trace then ([], true, 0, 0)
    else begin
      let t, _, _ = with_telemetry (fun () -> measure ~traced:true (List.nth sessions 1)) in
      let apply = span "sim/churn/apply" and rescore = span "sim/churn/rescore" in
      let rescores = Telemetry.Span.count rescore in
      let exec kd = Stats.sorted (Loop.select t t.Loop.exec_ns (of_kinds [ kd ])) in
      let route = Stats.sorted t.Loop.route_ns in
      describe "traced request latency" (Stats.sorted t.Loop.latency_ns);
      describe "route (advise_create)" route;
      let values =
        [
          ("adaptive.route_ns", float_of_int (median_ns route));
          ("adaptive.route_p99_ns", float_of_int (p99_ns route));
          ("api.parse_ns", per (float_of_int t.Loop.parse_total_ns) t.Loop.ops);
          ("api.render_ns", per (float_of_int t.Loop.render_total_ns) t.Loop.ops);
          ("serve.write_ns", per (float_of_int t.Loop.write_total_ns) t.Loop.ops);
          ( "churn.apply_ns",
            per (float_of_int (Telemetry.Span.total_ns apply)) (Telemetry.Span.count apply) );
          ( "churn.rescore_ns",
            per (float_of_int (Telemetry.Span.total_ns rescore)) rescores );
          ( "dyn.rescore_evals_per_query",
            per (float_of_int (counter "sim/churn/rescore/evals")) rescores );
          ( "dyn.rescore_heap_pops_per_query",
            per (float_of_int (counter "sim/churn/rescore/heap_pops")) rescores );
          ( "trace.overhead_pct",
            100. *. (ops_per_s plain.Loop.latency_ns /. ops_per_s t.Loop.latency_ns -. 1.) );
        ]
        @ List.concat_map
            (fun kd ->
              let e = exec kd in
              [
                ("api.exec_p50_ns." ^ kd, float_of_int (median_ns e));
                ("api.exec_p99_ns." ^ kd, float_of_int (p99_ns e));
              ])
            serve_kinds
      in
      (values, t.Loop.digest = plain.Loop.digest, t.Loop.ops, t.Loop.rejected)
    end
  in
  if not digests_agree then problems := "traced responses differ" :: !problems;
  Unix.close out;
  {
    attempted = plain.Loop.ops + traced_ops;
    failed = plain.Loop.rejected + traced_rejected;
    problems = !problems;
    digest = plain.Loop.digest;
    values = base @ traced_values;
  }

(* ------------------------------------------------------------------ *)
(* The offline attack. *)

let greedy_counters =
  [
    ("kernel.greedy_evals", "core/adversary/greedy/marginal_evals");
    ("kernel.greedy_heap_pops", "core/adversary/kernel/heap_pops");
    ("kernel.greedy_stale_reevals", "core/adversary/kernel/stale_reevals");
  ]

let bb_counters =
  [
    ("bb.nodes", "core/adversary/bb/nodes_expanded");
    ("bb.leaves", "core/adversary/bb/leaves");
    ("bb.prunes", "core/adversary/bb/bound_prunes");
    ("bb.spawned_tasks", "core/adversary/bb/spawned_tasks");
    ("bb.completions", "core/adversary/bb/completions");
  ]

let topology_counters = [ ("topology.bb_nodes", "topology/adversary/bb/nodes_expanded") ]

let nodes_line a = String.concat "," (Array.to_list (Array.map string_of_int a))

type attack_pass = {
  a_latency : int array;  (** per solve *)
  a_kind : int array;  (** 0 greedy, 1 exact, 2 domain exact *)
  a_digest : int;
  a_problems : string list;
  a_counts : (string * int) list;  (** per-layer counter sums *)
}

let attack_pass ~traced (inp : Workload.attack) ~rounds ~small_greedy ~domain_greedy =
  let latency = ref [] and kinds = ref [] and problems = ref [] in
  let digest = ref Loop.digest_init in
  let sums = Hashtbl.create 16 in
  let solve kind counters f =
    let before = List.map (fun (_, path) -> counter path) counters in
    let line, ns = timed f in
    if traced then
      List.iter2
        (fun (name, path) b ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt sums name) in
          Hashtbl.replace sums name (prev + counter path - b))
        counters before;
    latency := ns :: !latency;
    kinds := kind :: !kinds;
    digest := Loop.digest_string !digest (line ^ "\n")
  in
  let s = Workload.s in
  for _ = 1 to rounds do
    for _ = 1 to 5 do
      solve 0 greedy_counters (fun () ->
          let a = Placement.Adversary.greedy inp.Workload.big ~s ~k:Workload.greedy_k in
          Printf.sprintf "greedy %s %d" (nodes_line a.Placement.Adversary.failed_nodes)
            a.Placement.Adversary.failed_objects)
    done;
    solve 1 bb_counters (fun () ->
        let a = Placement.Adversary.exact inp.Workload.small ~s ~k:Workload.exact_k in
        if not a.Placement.Adversary.exact then problems := "exact attack truncated" :: !problems;
        if a.Placement.Adversary.failed_objects < small_greedy then
          problems := "exact attack kills fewer objects than greedy" :: !problems;
        Printf.sprintf "exact %s %d" (nodes_line a.Placement.Adversary.failed_nodes)
          a.Placement.Adversary.failed_objects);
    solve 2 topology_counters (fun () ->
        let a =
          Topology.Adversary.exact inp.Workload.sts ~s inp.Workload.tree ~level:1
            ~j:Workload.domain_j
        in
        if not a.Topology.Adversary.exact then
          problems := "domain exact attack truncated" :: !problems;
        if a.Topology.Adversary.failed_objects < domain_greedy then
          problems := "domain exact attack kills fewer objects than greedy" :: !problems;
        Printf.sprintf "domain %s %d" (nodes_line a.Topology.Adversary.failed_domains)
          a.Topology.Adversary.failed_objects)
  done;
  {
    a_latency = Array.of_list (List.rev !latency);
    a_kind = Array.of_list (List.rev !kinds);
    a_digest = !digest;
    a_problems = !problems;
    a_counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums [];
  }

let attack ~seed ~seconds ~trace =
  let rounds = (Workload.spec ~seconds Workload.Attack).Workload.count in
  let make_times = ref [] in
  let kept, setup_times =
    set_up ~keep:1 (fun () ->
        let inp = Workload.attack_inputs ~seed in
        (* The first kernel over a fresh layout also builds its CSR. *)
        let _, ns = timed (fun () -> Placement.Kernel.make inp.Workload.big ~s:Workload.s) in
        make_times := secs ns :: !make_times;
        inp)
  in
  let inp = List.hd kept in
  let s = Workload.s in
  let small_greedy =
    (Placement.Adversary.greedy inp.Workload.small ~s ~k:Workload.exact_k)
      .Placement.Adversary.failed_objects
  and domain_greedy =
    (Topology.Adversary.greedy inp.Workload.sts ~s inp.Workload.tree ~level:1
       ~j:Workload.domain_j)
      .Topology.Adversary.failed_objects
  in
  let run ~traced = attack_pass ~traced inp ~rounds ~small_greedy ~domain_greedy in
  let plain, gc = gc_delta (fun () -> run ~traced:false) in
  let of_kind p kd =
    Stats.sorted
      (Array.of_list
         (List.filteri (fun i _ -> p.a_kind.(i) = kd) (Array.to_list p.a_latency)))
  in
  let ops = Array.length plain.a_latency in
  List.iteri
    (fun kd name -> describe name (of_kind plain kd))
    [ "greedy k=16 n=10^4 b=10^6"; "exact k=6 n=40 b=800"; "domain exact j=7 STS(69)" ];
  let base =
    [
      ("setup_s", Stats.median_float setup_times);
      ("ops_per_s", ops_per_s plain.a_latency);
      ("key_p50_us", float_of_int (median_ns (of_kind plain 1)) /. 1e3);
      ("peak_rss_mb", peak_rss_mb ());
      ("gc.minor_words_per_req", per gc.minor ops);
      ("gc.promoted_words_per_req", per gc.promoted ops);
      ("gc.major_collections", float_of_int gc.majors);
    ]
  in
  let traced_values, traced_problems =
    if not trace then ([], [])
    else begin
      let t = with_telemetry (fun () -> run ~traced:true) in
      let calls kd = Array.length (of_kind t kd) in
      let mean name kd =
        (name, per (float_of_int (List.assoc name t.a_counts)) (calls kd))
      in
      let median_s kd = secs (median_ns (of_kind t kd)) in
      ( [
          ("kernel.make_s", Stats.median_float !make_times);
          ("kernel.greedy_s", median_s 0);
          ("bb.search_s", median_s 1);
          ("topology.exact_s", median_s 2);
          ( "trace.overhead_pct",
            100. *. (ops_per_s plain.a_latency /. ops_per_s t.a_latency -. 1.) );
        ]
        @ List.map (fun (name, _) -> mean name 0) greedy_counters
        @ List.map (fun (name, _) -> mean name 1) bb_counters
        @ List.map (fun (name, _) -> mean name 2) topology_counters,
        (if t.a_digest <> plain.a_digest then [ "traced attack results differ" ] else [])
        @ t.a_problems )
    end
  in
  let problems = plain.a_problems @ traced_problems in
  {
    attempted = ops * if trace then 2 else 1;
    failed = List.length problems;
    problems;
    digest = plain.a_digest;
    values = base @ traced_values;
  }

(* ------------------------------------------------------------------ *)
(* Command line and report. *)

let usage () =
  prerr_endline
    "usage: main.exe profile WORKLOAD [--seed N] [--seconds S] [--trace]\n\
    \       main.exe --workload WORKLOAD --seed N --seconds S --trace 0|1\n\
     workloads: ingest, outage, worst_query, attack";
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref pinned_seed in
  let seconds = ref pinned_seconds and trace = ref false in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> i
    | _ ->
        Printf.eprintf "%s expects a non-negative integer, got %S\n" flag v;
        usage ()
  in
  let set_workload name =
    match Workload.of_name name with
    | Some w -> workload := Some w
    | None ->
        Printf.eprintf "unknown workload %S\n" name;
        usage ()
  in
  let rec go = function
    | [] -> ()
    | "profile" :: rest -> go rest
    | "--workload" :: name :: rest -> set_workload name; go rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; go rest
    | "--seconds" :: v :: rest -> seconds := max 1 (int_arg "--seconds" v); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | "--trace" :: rest -> trace := true; go rest
    | name :: rest when String.length name > 0 && name.[0] <> '-' -> set_workload name; go rest
    | flag :: _ ->
        Printf.eprintf "unknown argument %S\n" flag;
        usage ()
  in
  go (List.tl (Array.to_list argv));
  match !workload with
  | Some w -> (w, !seed, !seconds, !trace)
  | None -> usage ()

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let w, seed, seconds, trace = parse_args Sys.argv in
  note "workload %s  seed %d  seconds %d  trace %d" (Workload.name w) seed seconds
    (if trace then 1 else 0);
  let o =
    match w with
    | Workload.Attack -> attack ~seed ~seconds ~trace
    | _ -> serve w ~seed ~seconds ~trace
  in
  let pin_problems =
    if seed = pinned_seed && seconds = pinned_seconds && o.digest <> pinned w then
      [ Printf.sprintf "response digest %016x differs from the pinned %016x" o.digest (pinned w) ]
    else []
  in
  note "response digest %016x%s" o.digest
    (if seed = pinned_seed && seconds = pinned_seconds then " (pinned seed)" else "");
  let problems = o.problems @ pin_problems in
  List.iter (fun p -> note "CHECK FAILED: %s" p) problems;
  let metrics = if trace then per_layer else e2e in
  let value name = Option.value ~default:0. (List.assoc_opt name o.values) in
  List.iter (fun (name, unit) -> note "%-36s %16.4f %s" name (value name) unit) metrics;
  let correct = problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number (value name)) unit)
          metrics));
  exit (if correct then 0 else 1)
