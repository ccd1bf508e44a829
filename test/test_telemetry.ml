(* Tests for the Telemetry subsystem: JSON rendering, histogram bucket
   boundaries, the enabled/disabled gate, registry find-or-create and
   snapshot shape, and — the load-bearing contract — that every metric
   exported under "values" is bit-identical at -j 1 and -j 4 across the
   instrumented layers (adversary searches, Monte-Carlo, experiment
   grids).  Timings are allowed to differ; values are not. *)

module T = Telemetry

(* The registry is process-global, so every test that touches metrics
   starts from a clean slate and leaves telemetry disabled. *)
let with_clean_telemetry ?(enabled = true) f =
  T.Registry.reset ();
  T.Control.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      T.Control.set_enabled false;
      T.Control.set_tracing false;
      T.Registry.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_render () =
  let j =
    T.Json.(
      Obj
        [
          ("s", Str "a\"b\\c\nd");
          ("i", Int (-3));
          ("f", Float 2.0);
          ("g", Float 0.25);
          ("nan", Float nan);
          ("l", List [ Bool true; Null ]);
          ("e", Obj []);
        ])
  in
  Alcotest.(check string)
    "compact"
    {|{"s": "a\"b\\c\nd","i": -3,"f": 2.0,"g": 0.25,"nan": null,"l": [true,null],"e": {}}|}
    (T.Json.to_string j);
  Alcotest.(check string)
    "control chars escaped" {|"\u0001"|}
    (T.Json.to_string (T.Json.Str "\001"));
  let esc = T.Json.escape in
  Alcotest.(check string) "quote and backslash" {|a\"b\\c|} (esc {|a"b\c|});
  Alcotest.(check string) "newline, return, tab" {|\n\r\t|} (esc "\n\r\t");
  Alcotest.(check string) "0x1f as \\u" {|\u001f|} (esc "\x1f");
  Alcotest.(check string) "0x7f passes through" "\x7f" (esc "\x7f");
  Alcotest.(check string) "UTF-8 passes through" "d\xc3\xa9j\xc3\xa0 \xe2\x9c\x93"
    (esc "d\xc3\xa9j\xc3\xa0 \xe2\x9c\x93");
  let plain = "placement/v1 plain" in
  Alcotest.(check string) "plain unchanged" plain (esc plain);
  Alcotest.(check bool) "plain comes back itself" true (esc plain == plain);
  let rng = Random.State.make [| 30 |] in
  List.iter
    (fun n ->
      let b = Buffer.create 8 in
      T.Json.add_int b n;
      Alcotest.(check string) "add_int = string_of_int" (string_of_int n)
        (Buffer.contents b))
    ([ 0; 1; 9; 10; 99; 100; -1; -9; -10; -11; max_int; min_int;
       max_int - 1; min_int + 1 ]
    @ List.init 200 (fun i ->
          let v = Random.State.bits rng in
          if i mod 2 = 0 then v else -v));
  let indented = T.Json.to_string ~indent:2 j in
  Alcotest.(check bool) "indented has newlines" true
    (String.contains indented '\n');
  Alcotest.(check bool) "indented nests" true
    (String.length indented > String.length (T.Json.to_string j))

(* ------------------------------------------------------------------ *)
(* Histogram bucket boundaries *)

let test_histogram_buckets () =
  with_clean_telemetry @@ fun () ->
  let h = T.Registry.histogram "test/hist" in
  (* Bucket i starts at 2^(i-1); bucket 0 holds v <= 0. *)
  List.iter (T.Histogram.observe h) [ -5; 0; 1; 2; 3; 4; 7; 8 ];
  let snap = T.Histogram.snapshot h in
  Alcotest.(check int) "count" 8 snap.T.Histogram.count;
  Alcotest.(check int) "sum" 20 snap.T.Histogram.sum;
  Alcotest.(check (list (pair int int)))
    "bucket los and counts"
    [ (0, 2); (1, 1); (2, 2); (4, 2); (8, 1) ]
    snap.T.Histogram.buckets

(* ------------------------------------------------------------------ *)
(* Enabled/disabled gate *)

let test_disabled_noop () =
  with_clean_telemetry ~enabled:false @@ fun () ->
  let c = T.Registry.counter "test/gate/counter" in
  let h = T.Registry.histogram "test/gate/hist" in
  let g = T.Registry.gauge "test/gate/gauge" in
  let sp = T.Registry.span "test/gate/span" in
  T.Counter.incr c;
  T.Counter.add c 42;
  T.Histogram.observe h 7;
  T.Gauge.set g 1.0;
  T.Span.time sp ignore;
  Alcotest.(check int) "counter untouched" 0 (T.Counter.value c);
  Alcotest.(check int) "hist untouched" 0 (T.Histogram.snapshot h).T.Histogram.count;
  Alcotest.(check int) "span untouched" 0 (T.Span.count sp);
  let snap = T.Registry.snapshot () in
  Alcotest.(check int) "empty values" 0 (List.length snap.T.Registry.values);
  Alcotest.(check int) "empty timings" 0 (List.length snap.T.Registry.timings);
  (* Disabled Span.time still runs the function and passes the result. *)
  Alcotest.(check int) "span passthrough" 9 (T.Span.time sp (fun () -> 9))

let test_span_exception () =
  with_clean_telemetry @@ fun () ->
  let sp = T.Registry.span "test/span/raise" in
  (try T.Span.time sp (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "call recorded despite raise" 1 (T.Span.count sp)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_find_or_create () =
  with_clean_telemetry @@ fun () ->
  let a = T.Registry.counter "test/reg/shared" in
  let b = T.Registry.counter "test/reg/shared" in
  T.Counter.add a 3;
  T.Counter.add b 4;
  Alcotest.(check int) "same cell" 7 (T.Counter.value a);
  Alcotest.check_raises "type mismatch"
    (Invalid_argument
       "Telemetry.Registry: test/reg/shared already registered with another \
        metric type (wanted gauge)") (fun () ->
      ignore (T.Registry.gauge "test/reg/shared"))

let test_registry_snapshot_shape () =
  with_clean_telemetry @@ fun () ->
  T.Counter.add (T.Registry.counter "b/stable") 2;
  T.Counter.add (T.Registry.counter ~kind:T.Control.Volatile "a/volatile") 5;
  ignore (T.Registry.counter "z/zero" : T.Counter.t);
  T.Gauge.set (T.Registry.gauge "m/gauge") 0.5;
  ignore (T.Registry.gauge "m/unset" : T.Gauge.t);
  let sp = T.Registry.span "c/span" in
  T.Span.time sp ignore;
  T.Span.time sp ignore;
  let snap = T.Registry.snapshot () in
  let keys l = List.map fst l in
  (* Sorted by path; zero counters and unset gauges omitted; the span's
     Stable call count lands in values, its duration in timings. *)
  Alcotest.(check (list string))
    "values keys" [ "b/stable"; "c/span/calls" ]
    (keys snap.T.Registry.values);
  Alcotest.(check (list string))
    "timings keys" [ "a/volatile"; "c/span/total_ns"; "m/gauge" ]
    (keys snap.T.Registry.timings);
  (match List.assoc "c/span/calls" snap.T.Registry.values with
  | T.Registry.Count 2 -> ()
  | _ -> Alcotest.fail "span calls should be Count 2");
  (* Reset zeroes but keeps handles valid. *)
  T.Registry.reset ();
  let snap = T.Registry.snapshot () in
  Alcotest.(check int) "reset empties" 0 (List.length snap.T.Registry.values);
  T.Counter.incr (T.Registry.counter "b/stable");
  Alcotest.(check int) "handle survives reset" 1
    (T.Counter.value (T.Registry.counter "b/stable"))

let test_export_forms () =
  with_clean_telemetry @@ fun () ->
  T.Counter.add (T.Registry.counter "x/count") 3;
  T.Histogram.observe (T.Registry.histogram "x/dist") 5;
  let snap = T.Registry.snapshot () in
  Alcotest.(check string)
    "values_json"
    {|{"x/count": 3,"x/dist": {"count": 1,"sum": 5,"buckets": [[4,1]]}}|}
    (T.Json.to_string (T.Export.values_json snap));
  let table = T.Export.table snap in
  Alcotest.(check bool) "table lists paths" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains table "x/count" && contains table "values")

(* ------------------------------------------------------------------ *)
(* Determinism: the "values" section is bit-identical at any -j.

   Each workload runs once without a pool and once on a 4-domain pool;
   we compare the rendered values_json strings (exact paths and exact
   counts), which is precisely what the --metrics contract promises. *)

let values_string ~jobs (f : Engine.Pool.t option -> unit) =
  with_clean_telemetry @@ fun () ->
  (if jobs = 1 then f None
   else Engine.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool)));
  T.Json.to_string (T.Export.values_json (T.Registry.snapshot ()))

let check_j_independent name f =
  let seq = values_string ~jobs:1 f in
  let par = values_string ~jobs:4 f in
  Alcotest.(check string) (name ^ ": values at -j1 = -j4") seq par;
  Alcotest.(check bool) (name ^ ": collected something") true
    (String.length seq > 2)

let test_values_adversary_exact () =
  let inst = Placement.Instance.make ~b:600 ~r:3 ~s:2 ~n:31 ~k:3 () in
  let layout = Placement.Instance.combo_layout inst in
  check_j_independent "bb" (fun pool ->
      ignore (Placement.Adversary.exact ?pool layout ~s:2 ~k:3))

(* Reference greedy: a full rescan per pick over a hand-maintained hit
   counter array, (newly, progress) lex with lowest-id ties. *)
let scan_greedy layout ~s ~k =
  let inc = Placement.Layout.incidence layout in
  let node_objs = Array.init layout.Placement.Layout.n (Combin.Csr.row inc) in
  let hits = Array.make (Placement.Layout.b layout) 0 in
  let chosen = Array.make layout.Placement.Layout.n false in
  Array.init k (fun _ ->
      let best = ref (-1) and best_ne = ref (-1) and best_pr = ref (-1) in
      Array.iteri
        (fun nd objs ->
          if not chosen.(nd) then begin
            let ne = ref 0 and pr = ref 0 in
            Array.iter
              (fun obj ->
                if hits.(obj) + 1 = s then incr ne;
                if hits.(obj) < s then incr pr)
              objs;
            if !ne > !best_ne || (!ne = !best_ne && !pr > !best_pr) then begin
              best := nd;
              best_ne := !ne;
              best_pr := !pr
            end
          end)
        node_objs;
      chosen.(!best) <- true;
      Array.iter (fun obj -> hits.(obj) <- hits.(obj) + 1) node_objs.(!best);
      !best)

let test_values_adversary_greedy_1100 () =
  (* 1100 nodes: the greedy's attack is the full rescan's, and its work
     lands in the Stable greedy counters. *)
  let inst = Placement.Instance.make ~b:3000 ~r:3 ~s:2 ~n:1100 ~k:6 () in
  let layout =
    Placement.Instance.random_layout ~rng:(Combin.Rng.create 5) inst
  in
  let values =
    values_string ~jobs:1 (fun _ ->
        let a = Placement.Adversary.greedy layout ~s:2 ~k:6 in
        Alcotest.(check (array int)) "picks = rescan"
          (Combin.Intset.of_array (scan_greedy layout ~s:2 ~k:6))
          a.Placement.Adversary.failed_nodes;
        Alcotest.(check int) "damage = naive count"
          (Placement.Layout.failed_objects layout ~s:2
             ~failed_nodes:a.Placement.Adversary.failed_nodes)
          a.Placement.Adversary.failed_objects)
  in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length values && (String.sub values i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "work counted" true
    (contains "core/adversary/greedy/marginal_evals")

let test_values_topology_exact () =
  let inst = Placement.Instance.make ~b:80 ~r:3 ~s:2 ~n:24 ~k:3 () in
  let layout =
    Placement.Instance.random_layout ~rng:(Combin.Rng.create 7) inst
  in
  let tree = Topology.Build.regular ~racks:8 ~nodes_per_rack:3 in
  check_j_independent "topology exact" (fun pool ->
      ignore (Topology.Adversary.exact ?pool layout ~s:2 tree ~level:1 ~j:3))

let test_values_montecarlo () =
  let p = Placement.Params.make ~b:150 ~r:3 ~s:2 ~n:31 ~k:3 in
  check_j_independent "montecarlo" (fun pool ->
      ignore
        (Dsim.Montecarlo.avg_avail_random ?pool
           ~rng:(Combin.Rng.create 11) ~trials:6 p))

let test_values_experiment_grid () =
  check_j_independent "fig2" (fun pool ->
      ignore (Experiments.Fig2.compute ?pool ~bs:[ 300; 600 ] ()))

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_peak_rss () =
  (* The test runs on Linux, so procfs is there and the process has
     certainly touched more than a megabyte by now. *)
  match T.Resource.peak_rss_kb () with
  | None -> Alcotest.fail "peak_rss_kb returned None on Linux"
  | Some kb ->
      Alcotest.(check bool) "plausible magnitude" true (kb > 1024)

let test_resource_sample_gate () =
  with_clean_telemetry @@ fun () ->
  let g = T.Registry.gauge "process/peak_rss_kb" in
  Alcotest.(check bool) "starts unset" true (Float.is_nan (T.Gauge.value g));
  T.Resource.sample ();
  Alcotest.(check bool) "sample records a positive gauge" true
    (T.Gauge.value g > 0.0);
  T.Gauge.reset g;
  T.Control.set_enabled false;
  T.Resource.sample ();
  Alcotest.(check bool) "disabled sample is a no-op" true
    (Float.is_nan (T.Gauge.value g))

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [ Alcotest.test_case "render & escape" `Quick test_json_render ] );
      ( "histogram",
        [ Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets ] );
      ( "gate",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "span survives raise" `Quick test_span_exception;
        ] );
      ( "registry",
        [
          Alcotest.test_case "find-or-create" `Quick test_registry_find_or_create;
          Alcotest.test_case "snapshot shape" `Quick test_registry_snapshot_shape;
          Alcotest.test_case "export forms" `Quick test_export_forms;
        ] );
      ( "resource",
        [
          Alcotest.test_case "peak_rss_kb" `Quick test_resource_peak_rss;
          Alcotest.test_case "sample gate" `Quick test_resource_sample_gate;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "adversary exact -j" `Quick test_values_adversary_exact;
          Alcotest.test_case "greedy = rescan, n=1100" `Quick
            test_values_adversary_greedy_1100;
          Alcotest.test_case "topology exact -j" `Quick
            test_values_topology_exact;
          Alcotest.test_case "montecarlo -j" `Quick test_values_montecarlo;
          Alcotest.test_case "experiment grid -j" `Quick
            test_values_experiment_grid;
        ] );
    ]
