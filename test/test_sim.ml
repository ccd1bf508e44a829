(* Tests for the dsim simulator substrate. *)

let qtest ?(count = 100) name gen prop =
  (* Fixed random state: property tests must be reproducible. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xC0FFEE |])
    (QCheck2.Test.make ~count ~name gen prop)

let mk_layout () =
  let sts = Designs.Steiner_triple.make 9 in
  (Placement.Simple.of_design sts ~n:9 ~b:12).Placement.Simple.layout

(* ------------------------------------------------------------------ *)
(* Semantics *)

let test_thresholds () =
  let t sem r = Dsim.Semantics.fatality_threshold sem ~r in
  Alcotest.(check int) "read_any r=3" 3 (t Dsim.Semantics.Read_any 3);
  Alcotest.(check int) "write_all r=3" 1 (t Dsim.Semantics.Write_all 3);
  Alcotest.(check int) "majority r=3" 2 (t Dsim.Semantics.Majority 3);
  Alcotest.(check int) "majority r=4" 2 (t Dsim.Semantics.Majority 4);
  Alcotest.(check int) "majority r=5" 3 (t Dsim.Semantics.Majority 5);
  Alcotest.(check int) "threshold" 2 (t (Dsim.Semantics.Threshold 2) 3);
  (* (6,4) MDS code: survives while 4 of 6 fragments live -> s = 3. *)
  Alcotest.(check int) "erasure 6,4" 3 (t (Dsim.Semantics.Erasure 4) 6);
  Alcotest.(check int) "erasure 9,6" 4 (t (Dsim.Semantics.Erasure 6) 9);
  Alcotest.(check bool) "invalid threshold" true
    (try
       ignore (t (Dsim.Semantics.Threshold 9) 3);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Cluster *)

let test_cluster_initial () =
  let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
  Alcotest.(check int) "all objects available" 12 (Dsim.Cluster.available_objects c);
  Alcotest.(check int) "no failed nodes" 0 (Array.length (Dsim.Cluster.failed_nodes c));
  Alcotest.(check bool) "node 0 up" true (Dsim.Cluster.node_up c 0)

let test_cluster_incremental_matches_layout =
  qtest ~count:60 "incremental availability = Layout recount"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 8))
    (fun (seed, nfail) ->
      let layout = mk_layout () in
      let c = Dsim.Cluster.create layout Dsim.Semantics.Majority in
      let rng = Combin.Rng.create seed in
      let failed = Combin.Rng.sample_distinct rng ~n:9 ~k:nfail in
      Array.iter (Dsim.Cluster.fail_node c) failed;
      Dsim.Cluster.available_objects c
      = Placement.Layout.avail layout ~s:2 ~failed_nodes:failed
      && Dsim.Cluster.failed_nodes c = failed)

let test_cluster_fail_recover_roundtrip =
  qtest ~count:60 "fail then recover restores state"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
      let rng = Combin.Rng.create seed in
      let failed = Combin.Rng.sample_distinct rng ~n:9 ~k:4 in
      Array.iter (Dsim.Cluster.fail_node c) failed;
      Array.iter (Dsim.Cluster.recover_node c) failed;
      Dsim.Cluster.available_objects c = 12
      && Array.length (Dsim.Cluster.failed_nodes c) = 0)

let test_cluster_idempotent_ops () =
  let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Write_all in
  Dsim.Cluster.fail_node c 3;
  let after_one = Dsim.Cluster.available_objects c in
  Dsim.Cluster.fail_node c 3;
  Alcotest.(check int) "double fail is idempotent" after_one
    (Dsim.Cluster.available_objects c);
  Dsim.Cluster.recover_node c 3;
  Dsim.Cluster.recover_node c 3;
  Alcotest.(check int) "double recover idempotent" 12
    (Dsim.Cluster.available_objects c)

let racks_topology () = Topology.Build.of_racks [| 0; 0; 0; 1; 1; 1; 2; 2; 2 |]

let test_cluster_racks () =
  let c =
    Dsim.Cluster.create ~topology:(racks_topology ()) (mk_layout ())
      Dsim.Semantics.Majority
  in
  let level = Dsim.Cluster.rack_level c in
  let topo = Dsim.Cluster.topology c in
  Alcotest.(check int) "rack level" 1 level;
  Alcotest.(check int) "three racks" 3 (Topology.Tree.domain_count topo ~level);
  Alcotest.(check (array int)) "rack 1 nodes" [| 3; 4; 5 |]
    (Topology.Tree.members topo ~level 1);
  Dsim.Cluster.fail_domain c ~level:1 1;
  Alcotest.(check (array int)) "failed nodes" [| 3; 4; 5 |] (Dsim.Cluster.failed_nodes c);
  Alcotest.(check int) "rack of node 7" 2 (Topology.Tree.domain_of topo ~level 7)

let test_live_replicas () =
  let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
  let layout = Dsim.Cluster.layout c in
  let obj = 0 in
  let rep = layout.Placement.Layout.replicas.(obj) in
  Alcotest.(check int) "3 live" 3 (Dsim.Cluster.live_replicas c obj);
  Dsim.Cluster.fail_node c rep.(0);
  Alcotest.(check int) "2 live" 2 (Dsim.Cluster.live_replicas c obj);
  Alcotest.(check bool) "still available (majority)" true
    (Dsim.Cluster.object_available c obj);
  Dsim.Cluster.fail_node c rep.(1);
  Alcotest.(check bool) "now failed" false (Dsim.Cluster.object_available c obj)

(* ------------------------------------------------------------------ *)
(* Scenario *)

let test_scenario_explicit () =
  let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
  let rng = Combin.Rng.create 1 in
  let nodes = Dsim.Scenario.apply ~rng c (Dsim.Scenario.Explicit [| 4; 2 |]) in
  Alcotest.(check (array int)) "sorted nodes" [| 2; 4 |] nodes;
  Alcotest.(check (array int)) "cluster agrees" [| 2; 4 |] (Dsim.Cluster.failed_nodes c)

let test_scenario_random_nodes =
  qtest ~count:40 "random scenario fails exactly k nodes"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 8))
    (fun (seed, k) ->
      let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
      let rng = Combin.Rng.create seed in
      let nodes = Dsim.Scenario.apply ~rng c (Dsim.Scenario.Random_nodes k) in
      Array.length nodes = k
      && Array.length (Dsim.Cluster.failed_nodes c) = k)

let test_scenario_adversarial_beats_random () =
  (* On average the adversary must do at least as much damage as a random
     failure of the same size. *)
  let layout = mk_layout () in
  let c = Dsim.Cluster.create layout Dsim.Semantics.Majority in
  let rng = Combin.Rng.create 9 in
  let adv = Dsim.Scenario.run ~rng c (Dsim.Scenario.Adversarial 3) in
  let total_random = ref 0 in
  let trials = 20 in
  for _ = 1 to trials do
    total_random := !total_random + Dsim.Scenario.run ~rng c (Dsim.Scenario.Random_nodes 3)
  done;
  Alcotest.(check bool) "adversarial <= mean random availability" true
    (float_of_int adv <= float_of_int !total_random /. float_of_int trials +. 1e-9)

let test_scenario_racks () =
  let c =
    Dsim.Cluster.create ~topology:(racks_topology ()) (mk_layout ())
      Dsim.Semantics.Majority
  in
  let rng = Combin.Rng.create 2 in
  let nodes = Dsim.Scenario.apply ~rng c (Dsim.Scenario.Random_racks 2) in
  Alcotest.(check int) "6 nodes failed" 6 (Array.length nodes);
  (* The same two racks failed through fail_domain give the same set. *)
  let c' =
    Dsim.Cluster.create ~topology:(racks_topology ()) (mk_layout ())
      Dsim.Semantics.Majority
  in
  Array.iter
    (fun d -> Dsim.Cluster.fail_domain c' ~level:1 d)
    (Combin.Rng.sample_distinct (Combin.Rng.create 2) ~n:3 ~k:2);
  Alcotest.(check (array int)) "same nodes as fail_domain" nodes
    (Dsim.Cluster.failed_nodes c')

let test_scenario_apply_wellformed =
  (* Every constructor must return a sorted, duplicate-free node array
     within [0, n), agreeing with the cluster's failed set. *)
  qtest ~count:60 "apply returns a sorted distinct node set"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 4))
    (fun (seed, which) ->
      let topology = Topology.Build.regular ~racks:3 ~nodes_per_rack:3 in
      let c =
        Dsim.Cluster.create ~topology (mk_layout ()) Dsim.Semantics.Majority
      in
      let rng = Combin.Rng.create seed in
      let k = 1 + (seed mod 4) and j = 1 + (seed mod 3) in
      let scenario =
        match which with
        | 0 -> Dsim.Scenario.Adversarial k
        | 1 -> Dsim.Scenario.Random_nodes k
        | 2 -> Dsim.Scenario.Random_racks j
        | 3 -> Dsim.Scenario.Domain_failure (1, j)
        | _ -> Dsim.Scenario.Explicit [| 7; 2; 2; 5 |]
      in
      let nodes = Dsim.Scenario.apply ~rng c scenario in
      let n = Dsim.Cluster.n c in
      let sorted_distinct = ref true in
      Array.iteri
        (fun i nd ->
          if nd < 0 || nd >= n then sorted_distinct := false;
          if i > 0 && nodes.(i - 1) >= nd then sorted_distinct := false)
        nodes;
      !sorted_distinct && Dsim.Cluster.failed_nodes c = nodes)

(* ------------------------------------------------------------------ *)
(* Trace: a scripted timeline on Cluster.apply_event *)

let test_trace_replay () =
  let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Write_all in
  Alcotest.(check int) "all up" 12 (Dsim.Cluster.available_objects c);
  Dsim.Cluster.apply_event c (Dsim.Event.Node_fail 0);
  Alcotest.(check int) "one node down" 1
    (Array.length (Dsim.Cluster.failed_nodes c));
  Alcotest.(check bool) "write-all loses objects" true
    (Dsim.Cluster.available_objects c < 12);
  Dsim.Cluster.recover_all c;
  Alcotest.(check int) "recovered" 12 (Dsim.Cluster.available_objects c)

(* ------------------------------------------------------------------ *)
(* Unified events *)

let test_event_codec () =
  let evs =
    [
      Dsim.Event.Node_fail 3;
      Dsim.Event.Node_recover 3;
      Dsim.Event.Domain_fail (1, 0);
      Dsim.Event.Object_create;
      Dsim.Event.Object_delete 17;
      Dsim.Event.Measure "after outage";
    ]
  in
  let text =
    String.concat "\n" (List.map Dsim.Event.to_line evs) ^ "\n# comment\n\n"
  in
  (match Dsim.Event.parse_string text with
  | Ok parsed -> Alcotest.(check bool) "round-trip" true (parsed = evs)
  | Error (line, msg) ->
      Alcotest.failf "unexpected parse error at line %d: %s" line msg);
  match Dsim.Event.parse_string "create\nfrobnicate 3\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error (line, msg) ->
      Alcotest.(check int) "error line" 2 line;
      Alcotest.(check bool) "actionable message" true
        (String.length msg > 0 && String.index_opt msg '\n' = None)

let test_event_parse_errors () =
  let expect_error text =
    match Dsim.Event.parse_string text with
    | Ok _ -> Alcotest.failf "accepted malformed %S" text
    | Error (_, msg) ->
        Alcotest.(check bool) "one-line message" true
          (String.index_opt msg '\n' = None)
  in
  List.iter expect_error
    [
      "fail"; "fail x"; "recover 1 2"; "fail-domain 1"; "delete"; "create 3";
      "join"; "join a b"; "leave"; "leave 1 2";
    ]

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_event_error_messages () =
  (* Per-verb arity errors name the verb and show an example; the
     unknown-verb error enumerates the whole vocabulary. *)
  let error_of text =
    match Dsim.Event.parse_string text with
    | Ok _ -> Alcotest.failf "accepted malformed %S" text
    | Error (line, msg) ->
        Alcotest.(check int) "error on its own line" 1 line;
        msg
  in
  List.iter
    (fun (text, verb) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names its verb" text)
        true
        (contains ~sub:verb (error_of text)))
    [
      ("fail 1 2", "fail"); ("recover", "recover"); ("join x", "join");
      ("leave", "leave"); ("delete 1 2", "delete"); ("create 3", "create");
      ("fail-domain 1", "fail-domain");
    ];
  let unknown = error_of "frobnicate 3" in
  List.iter
    (fun verb ->
      Alcotest.(check bool)
        (Printf.sprintf "unknown-verb error lists %s" verb)
        true (contains ~sub:verb unknown))
    Dsim.Event.verbs;
  (* Blank lines and comments never error, whatever surrounds them. *)
  match Dsim.Event.parse_string "# a comment\n\n   \ncreate\n" with
  | Ok [ Dsim.Event.Object_create ] -> ()
  | Ok _ -> Alcotest.fail "comment/blank handling changed the events"
  | Error (line, msg) -> Alcotest.failf "rejected comment: %d: %s" line msg

let test_event_format_error () =
  Alcotest.(check string)
    "FILE:LINE: MSG" "events.txt:7: boom"
    (Dsim.Event.format_error ~file:"events.txt" (7, "boom"))

let test_cluster_apply_event () =
  let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Write_all in
  Dsim.Cluster.apply_event c (Dsim.Event.Node_fail 0);
  Alcotest.(check int) "one node down" 1
    (Array.length (Dsim.Cluster.failed_nodes c));
  Dsim.Cluster.apply_event c (Dsim.Event.Node_recover 0);
  Alcotest.(check int) "recovered" 12 (Dsim.Cluster.available_objects c);
  Alcotest.(check bool) "object churn rejected" true
    (try
       Dsim.Cluster.apply_event c Dsim.Event.Object_create;
       false
     with Invalid_argument _ -> true)

let test_scenario_events_equiv =
  qtest ~count:40 "scenario events ≡ direct apply"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 5))
    (fun (seed, kf) ->
      let layout = mk_layout () in
      let c1 = Dsim.Cluster.create layout Dsim.Semantics.Majority in
      let c2 = Dsim.Cluster.create layout Dsim.Semantics.Majority in
      (* Start both from the same dirty state. *)
      Dsim.Cluster.fail_node c1 2;
      Dsim.Cluster.fail_node c2 2;
      let scen = Dsim.Scenario.Random_nodes kf in
      let nodes1 =
        Dsim.Scenario.apply ~rng:(Combin.Rng.create seed) c1 scen
      in
      let evs, nodes2 =
        Dsim.Scenario.events ~rng:(Combin.Rng.create seed) c2 scen
      in
      List.iter (Dsim.Cluster.apply_event c2) evs;
      nodes1 = nodes2
      && Dsim.Cluster.failed_nodes c1 = Dsim.Cluster.failed_nodes c2
      && Dsim.Cluster.available_objects c1
         = Dsim.Cluster.available_objects c2)

let test_event_seeded_valid () =
  (* Every seeded event must replay cleanly: deletes name live ids,
     failures hit up nodes — validity by construction. *)
  let evs =
    Dsim.Event.seeded
      ~rng:(Combin.Rng.create 11)
      ~n:9 ~count:500 ~measure_every:50 ()
  in
  let eng = Dsim.Churn.create ~n:9 ~r:3 ~s:2 ~k:2 () in
  List.iter (fun ev -> ignore (Dsim.Churn.apply eng ev)) evs;
  Alcotest.(check bool) "applied all" true (Dsim.Churn.events eng >= 500);
  Alcotest.(check bool) "population grew" true (Dsim.Churn.live eng > 0)

let test_event_seeded_weights_zero_identical () =
  (* join/leave weights default to 0 and weight 0 must not perturb the
     rng draws: historical streams stay byte-identical. *)
  let gen ?jw ?lw () =
    Dsim.Event.seeded
      ~rng:(Combin.Rng.create 11)
      ~n:9 ?join_weight:jw ?leave_weight:lw ~count:400 ~measure_every:50 ()
  in
  Alcotest.(check bool) "explicit 0 weights = defaults" true
    (gen () = gen ~jw:0 ~lw:0 ())

let test_event_seeded_membership_valid () =
  (* With non-zero weights the stream contains joins and leaves and
     still replays cleanly — leaves never target a node holding the
     last capacity, joins only re-admit nodes that left. *)
  let evs =
    Dsim.Event.seeded
      ~rng:(Combin.Rng.create 3)
      ~n:12 ~join_weight:15 ~leave_weight:15 ~count:800 ~measure_every:0 ()
  in
  let joins =
    List.length
      (List.filter (function Dsim.Event.Node_join _ -> true | _ -> false) evs)
  and leaves =
    List.length
      (List.filter
         (function Dsim.Event.Node_leave _ -> true | _ -> false)
         evs)
  in
  Alcotest.(check bool) "stream has joins" true (joins > 0);
  Alcotest.(check bool) "stream has leaves" true (leaves > 0);
  let eng = Dsim.Churn.create ~n:12 ~r:3 ~s:2 ~k:2 () in
  List.iter (fun ev -> ignore (Dsim.Churn.apply eng ev)) evs;
  Dsim.Churn.check eng

(* ------------------------------------------------------------------ *)
(* Churn engine *)

let test_churn_oracle =
  qtest ~count:15 "incremental ≡ from-scratch at every step"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let eng = Dsim.Churn.create ~n:9 ~r:3 ~s:2 ~k:3 () in
      let evs =
        Dsim.Event.seeded
          ~rng:(Combin.Rng.create seed)
          ~n:9 ~count:120 ~measure_every:0 ()
      in
      List.iter
        (fun ev ->
          let step = Dsim.Churn.apply eng ev in
          (* The oracle: Dyn hits plane, Adaptive invariants, scratch
             kernel availability, and adversary picks/stats. *)
          Dsim.Churn.check eng;
          assert (step.Dsim.Churn.moved <= 3);
          assert (step.Dsim.Churn.available <= step.Dsim.Churn.live);
          assert (
            step.Dsim.Churn.lower_bound
            <= (Dsim.Churn.rescore eng).Dsim.Churn.worst_available))
        evs;
      true)

let test_churn_bounded_movement () =
  let eng = Dsim.Churn.create ~n:9 ~r:3 ~s:2 ~k:2 () in
  let evs =
    Dsim.Event.seeded
      ~rng:(Combin.Rng.create 5)
      ~n:9 ~count:300 ~measure_every:0 ()
  in
  let max_moved = ref 0 in
  List.iter
    (fun ev ->
      let step = Dsim.Churn.apply eng ev in
      if step.Dsim.Churn.moved > !max_moved then
        max_moved := step.Dsim.Churn.moved)
    evs;
  Alcotest.(check bool) "moved <= r per event" true (!max_moved <= 3);
  Alcotest.(check bool) "creates move exactly r" true (!max_moved = 3)

let test_churn_membership_oracle =
  qtest ~count:12 "join/leave keeps the oracle and movement bound"
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let r = 3 in
      let eng = Dsim.Churn.create ~n:12 ~r ~s:2 ~k:3 () in
      let evs =
        Dsim.Event.seeded
          ~rng:(Combin.Rng.create seed)
          ~n:12 ~join_weight:20 ~leave_weight:20 ~count:150 ~measure_every:0
          ()
      in
      List.iter
        (fun ev ->
          (* The movement bound is stated against the pre-event load:
             a leave relocates at most the departing node's replicas,
             each re-placed across r nodes. *)
          let budget =
            match ev with
            | Dsim.Event.Object_create -> r
            | Dsim.Event.Node_leave nd -> r * Dsim.Churn.node_load eng nd
            | _ -> 0
          in
          let step = Dsim.Churn.apply eng ev in
          assert (step.Dsim.Churn.moved <= budget);
          (match ev with
          | Dsim.Event.Node_leave nd ->
              assert (not (Dsim.Churn.node_in_service eng nd));
              assert (Dsim.Churn.node_load eng nd = 0)
          | Dsim.Event.Node_join nd ->
              assert (Dsim.Churn.node_in_service eng nd)
          | _ -> ());
          (* Full oracle: Dyn hit plane ≡ scratch kernel, Adaptive
             invariants, in_service ≡ not-retired. *)
          Dsim.Churn.check eng)
        evs;
      true)

(* A naive model of node state — plain up/in-service arrays updated only
   from events the engine accepted — against every node-state read the
   engine exposes. *)
let test_churn_node_state_model =
  qtest ~count:20 "node state matches a naive model"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 6 14))
    (fun (seed, n) ->
      let eng = Dsim.Churn.create ~n ~r:3 ~s:2 ~k:2 () in
      let up = Array.make n true and in_service = Array.make n true in
      let evs =
        Dsim.Event.seeded
          ~rng:(Combin.Rng.create seed)
          ~n ~join_weight:20 ~leave_weight:20 ~count:200 ~measure_every:0 ()
      in
      List.for_all
        (fun ev ->
          let step =
            match Dsim.Churn.apply eng ev with
            | step ->
                (match ev with
                | Dsim.Event.Node_fail nd -> up.(nd) <- false
                | Dsim.Event.Node_recover nd -> up.(nd) <- true
                | Dsim.Event.Node_leave nd ->
                    up.(nd) <- true;
                    in_service.(nd) <- false
                | Dsim.Event.Node_join nd -> in_service.(nd) <- true
                | _ -> ());
                Some step
            | exception Invalid_argument _ -> None
          in
          let down =
            List.filter (fun nd -> not up.(nd)) (List.init n Fun.id)
          in
          let serving =
            Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
              in_service
          in
          Dsim.Churn.failed_nodes eng = Array.of_list down
          && List.for_all
               (fun nd ->
                 Dsim.Churn.node_up eng nd = up.(nd)
                 && Dsim.Churn.node_in_service eng nd = in_service.(nd))
               (List.init n Fun.id)
          && Dsim.Churn.nodes_in_service eng = serving
          &&
          match step with
          | Some step -> step.Dsim.Churn.failed_nodes = List.length down
          | None -> true)
        evs)

let test_churn_membership_guards () =
  let eng = Dsim.Churn.create ~n:6 ~r:2 ~s:1 ~k:1 () in
  let rejected ev =
    try
      ignore (Dsim.Churn.apply eng ev);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "join of an in-service node rejected" true
    (rejected (Dsim.Event.Node_join 0));
  ignore (Dsim.Churn.apply eng (Dsim.Event.Node_leave 0));
  Alcotest.(check bool) "double leave rejected" true
    (rejected (Dsim.Event.Node_leave 0));
  Alcotest.(check bool) "failing a departed node rejected" true
    (rejected (Dsim.Event.Node_fail 0));
  Alcotest.(check bool) "recovering a departed node rejected" true
    (rejected (Dsim.Event.Node_recover 0));
  ignore (Dsim.Churn.apply eng (Dsim.Event.Node_join 0));
  Alcotest.(check bool) "re-admitted" true (Dsim.Churn.node_in_service eng 0);
  Dsim.Churn.check eng

let test_churn_leave_relocates () =
  (* A populated node's departure re-homes every object it held; the
     objects stay live and available. *)
  let eng = Dsim.Churn.create ~n:8 ~r:3 ~s:2 ~k:2 () in
  for _ = 1 to 20 do
    ignore (Dsim.Churn.apply eng Dsim.Event.Object_create)
  done;
  let victim =
    (* Pick the most loaded node so the relocation is non-trivial. *)
    let best = ref 0 in
    for nd = 1 to 7 do
      if Dsim.Churn.node_load eng nd > Dsim.Churn.node_load eng !best then
        best := nd
    done;
    !best
  in
  let load = Dsim.Churn.node_load eng victim in
  Alcotest.(check bool) "victim is loaded" true (load > 0);
  let step = Dsim.Churn.apply eng (Dsim.Event.Node_leave victim) in
  Alcotest.(check bool) "something moved" true (step.Dsim.Churn.moved > 0);
  Alcotest.(check bool) "movement bounded" true
    (step.Dsim.Churn.moved <= 3 * load);
  Alcotest.(check int) "no object lost" 20 (Dsim.Churn.live eng);
  Alcotest.(check int) "all available" 20 (Dsim.Churn.available eng);
  Dsim.Churn.check eng

let test_churn_delete_unknown () =
  let eng = Dsim.Churn.create ~n:9 ~r:3 ~s:2 ~k:2 () in
  ignore (Dsim.Churn.apply eng Dsim.Event.Object_create);
  Alcotest.(check bool) "unknown delete rejected" true
    (try
       ignore (Dsim.Churn.apply eng (Dsim.Event.Object_delete 42));
       false
     with Invalid_argument _ -> true);
  ignore (Dsim.Churn.apply eng (Dsim.Event.Object_delete 0));
  Alcotest.(check int) "empty again" 0 (Dsim.Churn.live eng)

let test_churn_dead_on_arrival () =
  (* An object created while >= s of its replica nodes are down must be
     born unavailable — the hit counter is seeded from the failure set. *)
  let eng = Dsim.Churn.create ~n:9 ~r:3 ~s:1 ~k:1 () in
  for nd = 0 to 8 do
    ignore (Dsim.Churn.apply eng (Dsim.Event.Node_fail nd))
  done;
  ignore (Dsim.Churn.apply eng Dsim.Event.Object_create);
  Alcotest.(check int) "born dead" 0 (Dsim.Churn.available eng);
  Dsim.Churn.check eng

(* ------------------------------------------------------------------ *)
(* Repair (failure/repair timeline) *)

let repair_config =
  { Dsim.Repair.failure_rate = 0.02; mean_repair = 4.0; horizon = 500.0 }

let test_repair_restores_cluster () =
  let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
  let _ = Dsim.Repair.run ~rng:(Combin.Rng.create 3) c repair_config in
  Alcotest.(check int) "cluster recovered after run" 12
    (Dsim.Cluster.available_objects c);
  Alcotest.(check int) "no failed nodes" 0
    (Array.length (Dsim.Cluster.failed_nodes c))

let test_repair_stats_consistent =
  qtest ~count:20 "stats are internally consistent"
    QCheck2.Gen.(int_range 0 5000)
    (fun seed ->
      let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
      let s = Dsim.Repair.run ~rng:(Combin.Rng.create seed) c repair_config in
      s.Dsim.Repair.avg_unavailable >= 0.0
      && s.Dsim.Repair.avg_unavailable <= 12.0
      && s.Dsim.Repair.worst_unavailable >= 0
      && s.Dsim.Repair.worst_unavailable <= 12
      && s.Dsim.Repair.worst_nodes_down <= 9
      && s.Dsim.Repair.object_downtime_fraction >= 0.0
      && s.Dsim.Repair.object_downtime_fraction <= 1.0
      && (s.Dsim.Repair.incidents = 0) = (s.Dsim.Repair.worst_unavailable = 0)
      && abs_float
           (s.Dsim.Repair.avg_unavailable
           -. (s.Dsim.Repair.object_downtime_fraction *. 12.0))
         < 1e-9)

let test_repair_deterministic () =
  let run seed =
    let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
    Dsim.Repair.run ~rng:(Combin.Rng.create seed) c repair_config
  in
  Alcotest.(check (float 0.0)) "same seed, same result"
    (run 11).Dsim.Repair.avg_unavailable
    (run 11).Dsim.Repair.avg_unavailable

let test_repair_more_failures_more_downtime () =
  (* Doubling the failure rate (same repair speed) cannot reduce the
     average unavailability on the same seed-averaged runs. *)
  let avg rate =
    let total = ref 0.0 in
    for seed = 0 to 9 do
      let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
      let s =
        Dsim.Repair.run ~rng:(Combin.Rng.create seed) c
          { repair_config with Dsim.Repair.failure_rate = rate }
      in
      total := !total +. s.Dsim.Repair.avg_unavailable
    done;
    !total /. 10.0
  in
  Alcotest.(check bool) "monotone in failure rate" true (avg 0.04 > avg 0.005)

let test_repair_nines () =
  let s =
    {
      Dsim.Repair.horizon = 1.0;
      avg_unavailable = 0.0;
      worst_unavailable = 0;
      worst_nodes_down = 0;
      incidents = 0;
      object_downtime_fraction = 0.001;
    }
  in
  Alcotest.(check (float 1e-9)) "3 nines" 3.0 (Dsim.Repair.nines s);
  Alcotest.(check bool) "no downtime = infinite nines" true
    (Dsim.Repair.nines { s with Dsim.Repair.object_downtime_fraction = 0.0 }
    = infinity)

let test_repair_bad_config () =
  let c = Dsim.Cluster.create (mk_layout ()) Dsim.Semantics.Majority in
  Alcotest.(check bool) "negative rate rejected" true
    (try
       ignore
         (Dsim.Repair.run ~rng:(Combin.Rng.create 0) c
            { repair_config with Dsim.Repair.failure_rate = -1.0 });
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Montecarlo *)

let test_montecarlo_deterministic () =
  let p = Placement.Params.make ~b:40 ~r:3 ~s:2 ~n:12 ~k:3 in
  let run seed =
    Dsim.Montecarlo.avg_avail_random ~rng:(Combin.Rng.create seed) ~trials:5 p
  in
  let a = run 11 and b = run 11 in
  Alcotest.(check (float 0.0)) "same seed same mean" a.Dsim.Montecarlo.mean
    b.Dsim.Montecarlo.mean;
  Alcotest.(check int) "trials recorded" 5 a.Dsim.Montecarlo.trials;
  Alcotest.(check bool) "min <= mean <= max" true
    (float_of_int a.Dsim.Montecarlo.min <= a.Dsim.Montecarlo.mean
    && a.Dsim.Montecarlo.mean <= float_of_int a.Dsim.Montecarlo.max)

let test_montecarlo_bounded_by_b () =
  let p = Placement.Params.make ~b:40 ~r:3 ~s:2 ~n:12 ~k:3 in
  let r =
    Dsim.Montecarlo.avg_avail_random ~rng:(Combin.Rng.create 4) ~trials:8 p
  in
  Array.iter
    (fun a -> Alcotest.(check bool) "in [0,b]" true (a >= 0 && a <= 40))
    r.Dsim.Montecarlo.avails

(* ------------------------------------------------------------------ *)
(* Api: the request/response surface shared by churn --responses and
   serve. *)

let mk_session () = Dsim.Api.make (Dsim.Churn.create ~n:8 ~r:3 ~s:2 ~k:2 ())

let test_api_parse_request () =
  let ok line =
    match Dsim.Api.parse_request line with
    | Ok (Some req) -> req
    | Ok None -> Alcotest.failf "%S parsed to nothing" line
    | Error msg -> Alcotest.failf "%S rejected: %s" line msg
  in
  Alcotest.(check bool) "worst default k" true
    (ok "query worst" = Dsim.Api.Query (Dsim.Api.Worst None));
  Alcotest.(check bool) "worst explicit k" true
    (ok "query worst 3" = Dsim.Api.Query (Dsim.Api.Worst (Some 3)));
  Alcotest.(check bool) "avail" true
    (ok "query avail" = Dsim.Api.Query Dsim.Api.Avail);
  Alcotest.(check bool) "lower-bound" true
    (ok "query lower-bound" = Dsim.Api.Query Dsim.Api.Lower_bound);
  Alcotest.(check bool) "stats" true (ok "stats" = Dsim.Api.Stats);
  Alcotest.(check bool) "event" true
    (ok "fail 3" = Dsim.Api.Apply (Dsim.Event.Node_fail 3));
  Alcotest.(check bool) "leave event" true
    (ok "leave 2" = Dsim.Api.Apply (Dsim.Event.Node_leave 2));
  (match Dsim.Api.parse_request "# comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment not skipped");
  (match Dsim.Api.parse_request "   " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank not skipped");
  let err line =
    match Dsim.Api.parse_request line with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "%S accepted" line
  in
  Alcotest.(check bool) "bad k diagnosed" true
    (contains ~sub:"integer" (err "query worst x"));
  Alcotest.(check bool) "unknown query form" true
    (contains ~sub:"query" (err "query everything"));
  Alcotest.(check bool) "stats takes no args" true
    (contains ~sub:"stats" (err "stats now"));
  Alcotest.(check bool) "unknown request lists the vocabulary" true
    (List.for_all
       (fun verb -> contains ~sub:verb (err "frobnicate"))
       Dsim.Event.verbs)

let test_api_request_roundtrip () =
  List.iter
    (fun line ->
      match Dsim.Api.parse_request line with
      | Ok (Some req) ->
          Alcotest.(check string) "canonical spelling" line
            (Dsim.Api.request_to_line req)
      | _ -> Alcotest.failf "%S did not parse" line)
    [
      "query worst"; "query worst 3"; "query avail"; "query lower-bound";
      "stats"; "fail 3"; "recover 3"; "join 1"; "leave 1"; "create";
      "delete 17"; "fail-domain 1 0";
    ]

let test_api_exec () =
  let s = mk_session () in
  (match Dsim.Api.exec s (Dsim.Api.Apply Dsim.Event.Object_create) with
  | Dsim.Api.Applied step ->
      Alcotest.(check int) "create moved r" 3 step.Dsim.Churn.moved
  | _ -> Alcotest.fail "create not applied");
  (* Engine rejections come back as responses, never exceptions, and
     the session keeps serving. *)
  (match Dsim.Api.exec s (Dsim.Api.Apply (Dsim.Event.Node_fail 99)) with
  | Dsim.Api.Rejected { line = None; message } ->
      Alcotest.(check bool) "names the node" true (contains ~sub:"99" message)
  | _ -> Alcotest.fail "out-of-range fail not rejected");
  (match Dsim.Api.exec s (Dsim.Api.Query (Dsim.Api.Worst (Some 99))) with
  | Dsim.Api.Rejected { message; _ } ->
      Alcotest.(check bool) "k bound diagnosed" true
        (contains ~sub:"attack budget" message)
  | _ -> Alcotest.fail "oversized k not rejected");
  (match Dsim.Api.exec s (Dsim.Api.Query (Dsim.Api.Worst None)) with
  | Dsim.Api.Worst_case { k; attack; _ } ->
      Alcotest.(check int) "session k" 2 k;
      Alcotest.(check int) "attack has k nodes" 2 (Array.length attack)
  | _ -> Alcotest.fail "worst query failed");
  (match Dsim.Api.exec s (Dsim.Api.Query Dsim.Api.Avail) with
  | Dsim.Api.Availability { live; available; nodes_in_service; _ } ->
      Alcotest.(check int) "live" 1 live;
      Alcotest.(check int) "available" 1 available;
      Alcotest.(check int) "in service" 8 nodes_in_service
  | _ -> Alcotest.fail "avail query failed");
  let st = Dsim.Api.stats s in
  Alcotest.(check int) "requests counted" 5 st.Dsim.Api.requests;
  Alcotest.(check int) "rejections counted" 2 st.Dsim.Api.rejected;
  Alcotest.(check int) "one event applied" 1 st.Dsim.Api.events;
  Alcotest.(check int) "one create" 1 st.Dsim.Api.creates

let test_api_response_lines () =
  (* The wire format: every response is one line of placement/v1. *)
  let s = mk_session () in
  let one_line resp =
    let line = Dsim.Api.response_to_line resp in
    Alcotest.(check bool) "single line" true
      (String.index_opt line '\n' = None);
    Alcotest.(check bool) "placement/v1" true
      (contains ~sub:"\"schema\": \"placement/v1\"" line);
    line
  in
  let l =
    one_line (Dsim.Api.exec s (Dsim.Api.Apply Dsim.Event.Object_create))
  in
  Alcotest.(check bool) "apply envelope" true
    (contains ~sub:"\"command\": \"apply\"" l);
  let l = one_line (Dsim.Api.exec s (Dsim.Api.Query Dsim.Api.Avail)) in
  Alcotest.(check bool) "query envelope" true
    (contains ~sub:"\"command\": \"query\"" l
    && contains ~sub:"\"query\": \"avail\"" l);
  let l = one_line (Dsim.Api.exec s Dsim.Api.Stats) in
  Alcotest.(check bool) "stats envelope" true
    (contains ~sub:"\"command\": \"stats\"" l);
  let l = one_line (Dsim.Api.parse_error s 7 "bad line") in
  Alcotest.(check bool) "error envelope carries the line number" true
    (contains ~sub:"\"command\": \"error\"" l
    && contains ~sub:"\"line\": 7" l)

(* The byte specification of the wire format: each envelope built as a
   [Telemetry.Json] tree and printed compact.  [Api] writes its lines
   straight into a buffer and must match this tree byte for byte. *)
module Oracle = struct
  module J = Telemetry.Json

  let ints a = J.List (Array.to_list (Array.map (fun u -> J.Int u) a))

  let stats (st : Dsim.Api.stats) =
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

  let query fields = J.Obj fields |> Placement.Codec.json_envelope ~command:"query"

  let response : Dsim.Api.response -> J.t = function
    | Applied step ->
        Placement.Codec.json_envelope ~command:"apply"
          (J.Obj
             [
               ("seq", J.Int step.seq);
               ("event", J.Str (Dsim.Event.to_line step.event));
               ("moved", J.Int step.moved);
               ("live", J.Int step.live);
               ("available", J.Int step.available);
               ("failed_nodes", J.Int step.failed_nodes);
               ("lower_bound", J.Int step.lower_bound);
             ])
    | Worst_case { k; attack; worst_available; live } ->
        query
          [
            ("query", J.Str "worst");
            ("k", J.Int k);
            ("attack", ints attack);
            ("worst_available", J.Int worst_available);
            ("live", J.Int live);
          ]
    | Availability { live; available; failed_nodes; nodes_in_service } ->
        query
          [
            ("query", J.Str "avail");
            ("live", J.Int live);
            ("available", J.Int available);
            ("failed_nodes", J.Int failed_nodes);
            ("nodes_in_service", J.Int nodes_in_service);
          ]
    | Bound { lower_bound; live } ->
        query
          [
            ("query", J.Str "lower-bound");
            ("lower_bound", J.Int lower_bound);
            ("live", J.Int live);
          ]
    | Advice { nodes; live } ->
        query
          [
            ("query", J.Str "advise-create");
            ("nodes", ints nodes);
            ("live", J.Int live);
          ]
    | Stats_report st -> Placement.Codec.json_envelope ~command:"stats" (stats st)
    | Rejected { line; message } ->
        Placement.Codec.json_envelope ~command:"error"
          (J.Obj
             ((match line with Some l -> [ ("line", J.Int l) ] | None -> [])
             @ [ ("message", J.Str message) ]))

  let snapshot ~after_events st =
    Placement.Codec.json_envelope ~command:"snapshot"
      (J.Obj [ ("after_events", J.Int after_events); ("stats", stats st) ])

  let summary ~reason st =
    Placement.Codec.json_envelope ~command:"summary"
      (J.Obj [ ("reason", J.Str reason); ("stats", stats st) ])
end

module Wire_gen = struct
  open QCheck2.Gen

  (* Ints across the whole range: negatives, the extremes, zero. *)
  let any_int = oneof [ int; small_signed_int; pure max_int; pure min_int ]
  let bytes = string_size (int_range 0 24)
  let ints = array_size (oneofl [ 0; 0; 1; 3; 8 ]) any_int

  let event =
    oneof
      [
        map (fun n -> Dsim.Event.Node_fail n) any_int;
        map (fun n -> Dsim.Event.Node_recover n) any_int;
        map (fun n -> Dsim.Event.Node_join n) any_int;
        map (fun n -> Dsim.Event.Node_leave n) any_int;
        map2 (fun l d -> Dsim.Event.Domain_fail (l, d)) any_int any_int;
        pure Dsim.Event.Object_create;
        map (fun id -> Dsim.Event.Object_delete id) any_int;
        map (fun label -> Dsim.Event.Measure label) bytes;
      ]

  let stats =
    let+ v = map Array.of_list (list_repeat 18 any_int) in
    {
      Dsim.Api.requests = v.(0);
      events = v.(1);
      parse_errors = v.(2);
      rejected = v.(3);
      creates = v.(4);
      deletes = v.(5);
      node_fails = v.(6);
      node_recovers = v.(7);
      domain_fails = v.(8);
      joins = v.(9);
      leaves = v.(10);
      measures = v.(11);
      moved_replicas = v.(12);
      live = v.(13);
      available = v.(14);
      failed_nodes = v.(15);
      nodes_in_service = v.(16);
      lower_bound = v.(17);
    }

  let response : Dsim.Api.response t =
    oneof
      [
        (let+ seq = any_int
         and+ event = event
         and+ moved = any_int
         and+ live = any_int
         and+ available = any_int
         and+ failed_nodes = any_int
         and+ lower_bound = any_int in
         Dsim.Api.Applied
           { seq; event; moved; live; available; failed_nodes; lower_bound });
        (let+ k = any_int
         and+ attack = ints
         and+ worst_available = any_int
         and+ live = any_int in
         Dsim.Api.Worst_case { k; attack; worst_available; live });
        (let+ live = any_int
         and+ available = any_int
         and+ failed_nodes = any_int
         and+ nodes_in_service = any_int in
         Dsim.Api.Availability
           { live; available; failed_nodes; nodes_in_service });
        (let+ lower_bound = any_int and+ live = any_int in
         Dsim.Api.Bound { lower_bound; live });
        (let+ nodes = ints and+ live = any_int in
         Dsim.Api.Advice { nodes; live });
        map (fun st -> Dsim.Api.Stats_report st) stats;
        (let+ line = opt any_int and+ message = bytes in
         Dsim.Api.Rejected { line; message });
      ]
end

let same_bytes ~want got =
  got = want
  || QCheck2.Test.fail_reportf "codec wrote\n  %S\nthe tree prints\n  %S" got
       want

let prop_api_lines_match_oracle =
  qtest ~count:2000 "api response lines = tree encoder" Wire_gen.response
    (fun resp ->
      same_bytes
        ~want:(Telemetry.Json.to_string (Oracle.response resp))
        (Dsim.Api.response_to_line resp))

let prop_serve_lines_match_oracle =
  qtest ~count:500 "snapshot/summary lines = tree encoder"
    QCheck2.Gen.(
      triple Wire_gen.any_int Wire_gen.stats
        (oneofl [ "eof"; "signal"; "timeout"; "max-events" ]))
    (fun (after_events, st, reason) ->
      same_bytes
        ~want:(Telemetry.Json.to_string (Oracle.snapshot ~after_events st))
        (Dsim.Api.snapshot_line ~after_events st)
      && same_bytes
           ~want:(Telemetry.Json.to_string (Oracle.summary ~reason st))
           (Dsim.Api.summary_line ~reason st))

(* ------------------------------------------------------------------ *)
(* Serve: the daemon loop over real file descriptors. *)

let serve_lines ?max_events ?snapshot_every ?timeout input f =
  (* Run a fresh session over [input], capture the responses from a
     pipe; [f] also sees the session's request ledger. *)
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let session = mk_session () in
  let outcome =
    Dsim.Serve.run ?max_events ?snapshot_every ?timeout session ~input
      ~output:out_w
  in
  Unix.close out_w;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec slurp () =
    match Unix.read out_r chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        slurp ()
  in
  slurp ();
  Unix.close out_r;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  f outcome (Dsim.Api.stats session) lines

let with_serve ?max_events ?snapshot_every ?timeout script f =
  (* Feed [script] through a pipe.  Writing the whole script before
     running is safe here: scripts are tiny against the pipe buffer. *)
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let script = Bytes.of_string script in
  let n = Unix.write in_w script 0 (Bytes.length script) in
  Alcotest.(check int) "script fed whole" (Bytes.length script) n;
  Unix.close in_w;
  Fun.protect
    ~finally:(fun () -> Unix.close in_r)
    (fun () -> serve_lines ?max_events ?snapshot_every ?timeout in_r f)

let test_serve_eof () =
  with_serve "create\nquery avail\nbogus 1\ncreate"
  @@ fun outcome stats lines ->
  Alcotest.(check bool) "ends at eof" true
    (outcome.Dsim.Serve.reason = Dsim.Serve.Eof);
  Alcotest.(check int) "four requests" 4 stats.Dsim.Api.requests;
  (* 4 responses + the summary; the unterminated trailing line still
     gets processed. *)
  Alcotest.(check int) "responses + summary" 5 (List.length lines);
  Alcotest.(check int) "one parse error" 1 stats.Dsim.Api.parse_errors;
  let last = List.nth lines 4 in
  Alcotest.(check bool) "summary last" true
    (contains ~sub:"\"command\": \"summary\"" last
    && contains ~sub:"\"reason\": \"eof\"" last);
  Alcotest.(check bool) "parse error answered inline" true
    (contains ~sub:"\"line\": 3" (List.nth lines 2))

let test_serve_max_events () =
  with_serve ~max_events:2 "create\ncreate\ncreate\nquery avail\n"
  @@ fun outcome stats lines ->
  Alcotest.(check bool) "capped" true
    (outcome.Dsim.Serve.reason = Dsim.Serve.Max_events);
  Alcotest.(check int) "third event rejected" 1 stats.Dsim.Api.rejected;
  Alcotest.(check bool) "cap named in the refusal" true
    (List.exists (fun l -> contains ~sub:"event limit reached" l) lines);
  Alcotest.(check bool) "summary says max-events" true
    (contains ~sub:"\"reason\": \"max-events\"" (List.nth lines 3))

let test_serve_snapshots () =
  with_serve ~snapshot_every:2 "create\ncreate\ncreate\ncreate\n"
  @@ fun _outcome _stats lines ->
  let snaps =
    List.filter
      (fun l -> contains ~sub:"\"command\": \"snapshot\"" l)
      lines
  in
  Alcotest.(check int) "snapshot every 2 applies" 2 (List.length snaps);
  List.iter
    (fun l ->
      Alcotest.(check bool) "snapshot carries running stats" true
        (contains ~sub:"\"after_events\"" l && contains ~sub:"\"stats\"" l))
    snaps

let test_serve_timeout () =
  (* Leave the write end open but idle: only the timeout can end it. *)
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let session = mk_session () in
  let outcome =
    Dsim.Serve.run ~timeout:0.05 session ~input:in_r ~output:out_w
  in
  Unix.close in_w;
  Unix.close in_r;
  Unix.close out_w;
  let buf = Bytes.create 4096 in
  let n = Unix.read out_r buf 0 4096 in
  Unix.close out_r;
  Alcotest.(check bool) "timed out" true
    (outcome.Dsim.Serve.reason = Dsim.Serve.Timeout);
  Alcotest.(check bool) "summary still written" true
    (contains ~sub:"\"reason\": \"timeout\"" (Bytes.sub_string buf 0 n))

let test_serve_long_line () =
  (* A request line that straddles the 64 KiB read-chunk boundary
     (padding before and inside it) spans two reads and must be
     answered exactly like the short line — including one of exactly
     the 65,536-byte line bound.  A pipe cannot buffer the script
     before [run] starts, so it is fed from a file. *)
  let answers script =
    let path = Filename.temp_file "serve" ".in" in
    Out_channel.with_open_bin path (fun oc -> output_string oc script);
    let input = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () ->
        Unix.close input;
        Sys.remove path)
      (fun () -> serve_lines input (fun _ _ lines -> lines))
  in
  let short = answers "create\nquery avail\n" in
  Alcotest.(check int) "responses + summary" 3 (List.length short);
  let query = "query" ^ String.make (65_536 - 10) ' ' ^ "avail" in
  Alcotest.(check int) "the query line sits at the bound" 65_536
    (String.length query);
  Alcotest.(check (list string)) "long line answered like the short one" short
    (answers ("create" ^ String.make 40_000 ' ' ^ "\n" ^ query ^ "\n"))

let test_serve_overlong_line () =
  (* A line past the bound is refused inline and discarded through its
     newline; the session keeps serving.  The 1 MiB line outgrows the
     pipe buffer, so a second domain writes it while [run] reads. *)
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let script = String.make (1024 * 1024) 'x' ^ "\nstats\n" in
  let writer =
    Domain.spawn (fun () ->
        let b = Bytes.unsafe_of_string script in
        let off = ref 0 in
        while !off < Bytes.length b do
          off := !off + Unix.write in_w b !off (Bytes.length b - !off)
        done;
        Unix.close in_w)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close in_r)
    (fun () ->
      serve_lines in_r @@ fun outcome stats lines ->
      Domain.join writer;
      Alcotest.(check bool) "ends at eof" true
        (outcome.Dsim.Serve.reason = Dsim.Serve.Eof);
      Alcotest.(check int) "error, stats, summary" 3 (List.length lines);
      let err = List.nth lines 0 in
      Alcotest.(check bool) "refused inline as line 1" true
        (contains ~sub:"\"command\": \"error\"" err
        && contains ~sub:"\"line\": 1," err
        && contains ~sub:"request line exceeds 65536 bytes; discarded" err);
      let st = List.nth lines 1 in
      Alcotest.(check bool) "stats answered after it" true
        (contains ~sub:"\"command\": \"stats\"" st
        && contains ~sub:"\"requests\": 2," st
        && contains ~sub:"\"rejected\": 1," st
        && contains ~sub:"\"parse_errors\": 0," st);
      Alcotest.(check int) "ledger: requests" 2 stats.Dsim.Api.requests;
      Alcotest.(check int) "ledger: rejected, not a parse error" 1
        stats.Dsim.Api.rejected;
      Alcotest.(check int) "ledger: no parse error" 0
        stats.Dsim.Api.parse_errors)

let test_serve_line_bound_edge () =
  (* One byte past the bound is refused; the bound itself is not (see
     [test_serve_long_line]). *)
  let path = Filename.temp_file "serve" ".in" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc ("create" ^ String.make (65_537 - 6) ' ' ^ "\ncreate\n"));
  let input = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close input;
      Sys.remove path)
    (fun () ->
      serve_lines input @@ fun _ stats lines ->
      Alcotest.(check bool) "first line refused as overlong" true
        (contains ~sub:"\"line\": 1," (List.nth lines 0)
        && contains ~sub:"exceeds 65536 bytes" (List.nth lines 0));
      Alcotest.(check int) "second line applied" 1 stats.Dsim.Api.events)

let test_serve_session_persists () =
  (* A socket daemon reuses one session across connections: the second
     run continues the first's counters and engine state. *)
  let session = mk_session () in
  let round script =
    let in_r, in_w = Unix.pipe ~cloexec:false () in
    let out_r, out_w = Unix.pipe ~cloexec:false () in
    let b = Bytes.of_string script in
    ignore (Unix.write in_w b 0 (Bytes.length b));
    Unix.close in_w;
    ignore (Dsim.Serve.run session ~input:in_r ~output:out_w);
    Unix.close in_r;
    Unix.close out_w;
    Unix.close out_r;
    (Dsim.Api.stats session).Dsim.Api.requests
  in
  let o1 = round "create\ncreate\n" in
  let o2 = round "query avail\n" in
  Alcotest.(check int) "first round requests" 2 o1;
  Alcotest.(check int) "counters carried over" 3 o2;
  Alcotest.(check int) "engine carried over" 2
    (Dsim.Churn.live (Dsim.Api.engine session))

let () =
  Alcotest.run "dsim"
    [
      ("semantics", [ Alcotest.test_case "thresholds" `Quick test_thresholds ]);
      ( "cluster",
        [
          Alcotest.test_case "initial state" `Quick test_cluster_initial;
          test_cluster_incremental_matches_layout;
          test_cluster_fail_recover_roundtrip;
          Alcotest.test_case "idempotent ops" `Quick test_cluster_idempotent_ops;
          Alcotest.test_case "racks" `Quick test_cluster_racks;
          Alcotest.test_case "live replicas" `Quick test_live_replicas;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "explicit" `Quick test_scenario_explicit;
          test_scenario_random_nodes;
          Alcotest.test_case "adversarial beats random" `Quick
            test_scenario_adversarial_beats_random;
          Alcotest.test_case "racks" `Quick test_scenario_racks;
          test_scenario_apply_wellformed;
        ] );
      ( "trace",
        [
          Alcotest.test_case "replay" `Quick test_trace_replay;
        ] );
      ( "event",
        [
          Alcotest.test_case "codec" `Quick test_event_codec;
          Alcotest.test_case "parse errors" `Quick test_event_parse_errors;
          Alcotest.test_case "error messages" `Quick test_event_error_messages;
          Alcotest.test_case "format_error" `Quick test_event_format_error;
          Alcotest.test_case "cluster apply_event" `Quick
            test_cluster_apply_event;
          test_scenario_events_equiv;
          Alcotest.test_case "seeded stream valid" `Quick
            test_event_seeded_valid;
          Alcotest.test_case "seeded weights 0 identical" `Quick
            test_event_seeded_weights_zero_identical;
          Alcotest.test_case "seeded membership valid" `Quick
            test_event_seeded_membership_valid;
        ] );
      ( "churn",
        [
          test_churn_oracle;
          Alcotest.test_case "bounded movement" `Quick
            test_churn_bounded_movement;
          test_churn_membership_oracle;
          test_churn_node_state_model;
          Alcotest.test_case "membership guards" `Quick
            test_churn_membership_guards;
          Alcotest.test_case "leave relocates" `Quick
            test_churn_leave_relocates;
          Alcotest.test_case "unknown delete" `Quick test_churn_delete_unknown;
          Alcotest.test_case "dead on arrival" `Quick
            test_churn_dead_on_arrival;
        ] );
      ( "api",
        [
          Alcotest.test_case "parse_request" `Quick test_api_parse_request;
          Alcotest.test_case "request round-trip" `Quick
            test_api_request_roundtrip;
          Alcotest.test_case "exec" `Quick test_api_exec;
          Alcotest.test_case "response lines" `Quick test_api_response_lines;
          prop_api_lines_match_oracle;
          prop_serve_lines_match_oracle;
        ] );
      ( "serve",
        [
          Alcotest.test_case "eof session" `Quick test_serve_eof;
          Alcotest.test_case "max-events" `Quick test_serve_max_events;
          Alcotest.test_case "snapshots" `Quick test_serve_snapshots;
          Alcotest.test_case "timeout" `Quick test_serve_timeout;
          Alcotest.test_case "long line" `Quick test_serve_long_line;
          Alcotest.test_case "overlong line" `Quick test_serve_overlong_line;
          Alcotest.test_case "line bound edge" `Quick
            test_serve_line_bound_edge;
          Alcotest.test_case "session persists" `Quick
            test_serve_session_persists;
        ] );
      ( "repair",
        [
          Alcotest.test_case "restores cluster" `Quick test_repair_restores_cluster;
          test_repair_stats_consistent;
          Alcotest.test_case "deterministic" `Quick test_repair_deterministic;
          Alcotest.test_case "monotone in failure rate" `Quick
            test_repair_more_failures_more_downtime;
          Alcotest.test_case "nines" `Quick test_repair_nines;
          Alcotest.test_case "bad config" `Quick test_repair_bad_config;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "deterministic" `Quick test_montecarlo_deterministic;
          Alcotest.test_case "bounded" `Quick test_montecarlo_bounded_by_b;
        ] );
    ]
