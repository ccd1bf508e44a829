(* Tests for lib/topology: fault-domain trees, the domain adversary,
   the domain-failure bound, and the spread planners and strategies on
   the domain maps a tree converts to. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x70F0 |])
    (QCheck2.Test.make ~count ~name gen prop)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* Every object hosts r replicas on r distinct in-range nodes, sorted. *)
let well_formed (layout : Placement.Layout.t) =
  Array.for_all
    (fun rep ->
      Array.length rep = layout.Placement.Layout.r
      && Array.for_all (fun nd -> nd >= 0 && nd < layout.Placement.Layout.n) rep
      && Array.for_all
           (fun i -> rep.(i - 1) < rep.(i))
           (Array.init (Array.length rep - 1) (fun i -> i + 1)))
    layout.Placement.Layout.replicas

(* ------------------------------------------------------------------ *)
(* Tree *)

let test_tree_make () =
  (* Arbitrary ids are normalized in ascending order; two levels nest. *)
  let t =
    Topology.Tree.make ~n:6
      [ ("rack", [| 9; 9; 4; 4; 7; 7 |]); ("zone", [| 1; 1; 0; 0; 1; 1 |]) ]
  in
  Alcotest.(check int) "n" 6 (Topology.Tree.n t);
  Alcotest.(check int) "depth" 3 (Topology.Tree.depth t);
  Alcotest.(check (array string))
    "level names" [| "node"; "rack"; "zone" |]
    (Topology.Tree.level_names t);
  (* rack ids 4 < 7 < 9 normalize to 0, 1, 2. *)
  Alcotest.(check int) "node 0 in rack 2" 2 (Topology.Tree.domain_of t ~level:1 0);
  Alcotest.(check int) "node 2 in rack 0" 0 (Topology.Tree.domain_of t ~level:1 2);
  Alcotest.(check (array int)) "rack 0 members" [| 2; 3 |]
    (Topology.Tree.members t ~level:1 0);
  Alcotest.(check int) "rack 0's zone" 0 (Topology.Tree.parent t ~level:1 0);
  Alcotest.(check int) "rack 2's zone" 1 (Topology.Tree.parent t ~level:1 2);
  Alcotest.(check (option int)) "racks uniform" (Some 2)
    (Topology.Tree.uniform t ~level:1);
  Alcotest.(check (option int)) "zones uneven" None
    (Topology.Tree.uniform t ~level:2);
  Alcotest.(check (option int)) "find rack" (Some 1)
    (Topology.Tree.find_level t "rack");
  Alcotest.(check (option int)) "find nothing" None
    (Topology.Tree.find_level t "region")

let test_tree_invalid () =
  Alcotest.(check bool) "bad length" true
    (raises_invalid (fun () -> Topology.Tree.make ~n:3 [ ("rack", [| 0; 1 |]) ]));
  Alcotest.(check bool) "negative id" true
    (raises_invalid (fun () ->
         Topology.Tree.make ~n:2 [ ("rack", [| 0; -1 |]) ]));
  Alcotest.(check bool) "clashing names" true
    (raises_invalid (fun () ->
         Topology.Tree.make ~n:2 [ ("node", [| 0; 1 |]) ]));
  (* Nodes 0,1 share a rack but sit in different zones: no nesting. *)
  Alcotest.(check bool) "broken nesting" true
    (raises_invalid (fun () ->
         Topology.Tree.make ~n:2
           [ ("rack", [| 0; 0 |]); ("zone", [| 0; 1 |]) ]))

let test_build () =
  let flat = Topology.Build.flat 5 in
  Alcotest.(check int) "flat depth" 2 (Topology.Tree.depth flat);
  Alcotest.(check int) "flat racks" 5 (Topology.Tree.domain_count flat ~level:1);
  let reg = Topology.Build.regular ~racks:4 ~nodes_per_rack:5 in
  Alcotest.(check int) "regular n" 20 (Topology.Tree.n reg);
  Alcotest.(check (array int)) "regular rack 1" [| 5; 6; 7; 8; 9 |]
    (Topology.Tree.members reg ~level:1 1);
  let part = Topology.Build.partition ~n:31 ~domains:8 () in
  let sizes = Topology.Tree.sizes part ~level:1 in
  Alcotest.(check int) "partition covers" 31 (Array.fold_left ( + ) 0 sizes);
  Array.iter
    (fun sz -> Alcotest.(check bool) "near-even" true (sz = 3 || sz = 4))
    sizes;
  let nested = Topology.Build.nested [ ("zone", 2); ("rack", 3); ("node", 4) ] in
  Alcotest.(check int) "nested n" 24 (Topology.Tree.n nested);
  Alcotest.(check int) "nested racks" 6 (Topology.Tree.domain_count nested ~level:1);
  Alcotest.(check int) "rack 4 in zone 1" 1 (Topology.Tree.parent nested ~level:1 4)

let test_spec () =
  (match Topology.Spec.parse "zone:2/rack:4/node:8" with
  | Error e -> Alcotest.fail e
  | Ok t ->
      Alcotest.(check int) "n" 64 (Topology.Tree.n t);
      Alcotest.(check string) "summary"
        "64 nodes, 3 levels: zone x2, rack x8, node x64"
        (Topology.Spec.summary t));
  let err s =
    match Topology.Spec.parse s with Ok _ -> "<ok>" | Error e -> e
  in
  Alcotest.(check bool) "empty" true
    (String.length (err "") > 0 && err "" <> "<ok>");
  Alcotest.(check bool) "missing count" true (err "rack" <> "<ok>");
  Alcotest.(check bool) "zero count" true (err "rack:0" <> "<ok>");
  Alcotest.(check bool) "bad name" true (err "9rack:2" <> "<ok>");
  Alcotest.(check bool) "duplicate name" true (err "rack:2/rack:3" <> "<ok>");
  Alcotest.(check bool) "parse_exn raises" true
    (raises_invalid (fun () -> Topology.Spec.parse_exn "rack:"))

let test_failset () =
  let t = Topology.Build.regular ~racks:4 ~nodes_per_rack:3 in
  Alcotest.(check (option int)) "C(4,2)" (Some 6)
    (Topology.Failset.count t ~level:1 ~j:2);
  Alcotest.(check (array int)) "union of racks 0,2" [| 0; 1; 2; 6; 7; 8 |]
    (Topology.Failset.nodes t ~level:1 [| 0; 2 |]);
  let subsets = ref 0 in
  Topology.Failset.iter t ~level:1 ~j:2 (fun _ -> incr subsets);
  Alcotest.(check int) "iter count" 6 !subsets;
  let rng = Combin.Rng.create 7 in
  let s = Topology.Failset.sample ~rng t ~level:1 ~j:2 in
  Alcotest.(check int) "sample size" 2 (Array.length s);
  Alcotest.(check bool) "sample sorted in range" true
    (s.(0) < s.(1) && s.(0) >= 0 && s.(1) < 4);
  Alcotest.(check bool) "j out of range" true
    (raises_invalid (fun () -> Topology.Failset.validate t ~level:1 ~j:5))

(* ------------------------------------------------------------------ *)
(* Adversary *)

let fig4_layout ~n ~b ~k =
  let inst = Placement.Instance.make ~b ~r:3 ~s:2 ~n ~k () in
  Placement.Instance.combo_layout inst

(* The branch-and-bound oracle: sequential enumeration of every
   j-subset of domains in lexicographic order over the domain kernel,
   greedy-seeded with strict improvement — the tie rule the frontier
   must reproduce. *)
let exhaustive layout ~s tree ~level ~j =
  let g = Topology.Adversary.greedy layout ~s tree ~level ~j in
  let st = Topology.Adversary.kernel_of layout tree ~level ~s in
  let best = ref g.Topology.Adversary.failed_objects and best_set = ref None in
  let nd = Topology.Tree.domain_count tree ~level in
  let current = Array.make j 0 in
  let rec go start depth =
    if depth = j then begin
      if Placement.Kernel.killed st > !best then begin
        best := Placement.Kernel.killed st;
        best_set := Some (Array.copy current)
      end
    end
    else
      for d = start to nd - (j - depth) do
        current.(depth) <- d;
        Placement.Kernel.add st d;
        go (d + 1) (depth + 1);
        Placement.Kernel.remove st d
      done
  in
  go 0 0;
  match !best_set with
  | Some domains ->
      {
        Topology.Adversary.failed_domains = domains;
        failed_nodes = Topology.Failset.nodes tree ~level domains;
        failed_objects = !best;
        exact = true;
      }
  | None -> { g with Topology.Adversary.exact = true }

let test_adversary_flat_equals_node () =
  (* On a flat tree the rack adversary IS the node adversary: same
     availability on the Fig. 4 design points — and, one search under
     two prefixes, the same Stable search counters. *)
  let stable = [ "greedy/marginal_evals" ] in
  let count prefix name =
    Telemetry.Counter.value
      (Telemetry.Registry.counter (prefix ^ "/adversary/" ^ name))
  in
  Telemetry.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Control.set_enabled false;
      Telemetry.Registry.reset ())
  @@ fun () ->
  List.iter
    (fun (n, b, k) ->
      let name = Printf.sprintf "n=%d b=%d k=%d" n b k in
      let layout = fig4_layout ~n ~b ~k in
      let flat = Topology.Build.flat n in
      Telemetry.Registry.reset ();
      let rack = Topology.Adversary.exact layout ~s:2 flat ~level:1 ~j:k in
      let node = Placement.Adversary.exact layout ~s:2 ~k in
      Alcotest.(check int) name
        (Placement.Adversary.avail layout ~s:2 node)
        (Topology.Adversary.avail layout rack);
      Alcotest.(check (array int)) "same node set"
        node.Placement.Adversary.failed_nodes
        rack.Topology.Adversary.failed_nodes;
      Alcotest.(check bool) (name ^ ": greedy counted") true
        (count "core" "greedy/marginal_evals" > 0);
      List.iter
        (fun c ->
          Alcotest.(check int) (name ^ " " ^ c) (count "core" c)
            (count "topology" c))
        stable)
    [ (31, 600, 3); (31, 600, 4); (71, 2400, 3) ]

let test_adversary_exhaustive_vs_bb =
  (* The branch-and-bound must return exactly the exhaustive answer. *)
  qtest ~count:25 "exhaustive = branch-and-bound"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Combin.Rng.create seed in
      let inst = Placement.Instance.make ~b:60 ~r:3 ~s:2 ~n:12 ~k:3 () in
      let layout = Placement.Instance.random_layout ~rng inst in
      let tree = Topology.Build.regular ~racks:4 ~nodes_per_rack:3 in
      let j = 1 + (seed mod 3) in
      let ex = exhaustive layout ~s:2 tree ~level:1 ~j in
      let bb = Topology.Adversary.exact layout ~s:2 tree ~level:1 ~j in
      ex.Topology.Adversary.exact && bb.Topology.Adversary.exact
      && ex.Topology.Adversary.failed_objects
         = bb.Topology.Adversary.failed_objects
      && ex.Topology.Adversary.failed_domains
         = bb.Topology.Adversary.failed_domains)

let test_adversary_jobs_identical =
  (* Determinism contract: -j 1 and -j 4 produce bit-identical attacks. *)
  qtest ~count:10 "-j1 = -j4"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Combin.Rng.create seed in
      let inst = Placement.Instance.make ~b:80 ~r:3 ~s:2 ~n:24 ~k:3 () in
      let layout = Placement.Instance.random_layout ~rng inst in
      let tree = Topology.Build.regular ~racks:8 ~nodes_per_rack:3 in
      let j = 2 + (seed mod 2) in
      let seq = Topology.Adversary.exact layout ~s:2 tree ~level:1 ~j in
      let par =
        Engine.Pool.with_pool ~domains:4 (fun pool ->
            Topology.Adversary.exact ~pool layout ~s:2 tree ~level:1 ~j)
      in
      seq.Topology.Adversary.failed_domains
      = par.Topology.Adversary.failed_domains
      && seq.Topology.Adversary.failed_objects
         = par.Topology.Adversary.failed_objects
      && seq.Topology.Adversary.exact = par.Topology.Adversary.exact)

let test_adversary_pool_vs_exhaustive () =
  (* The per-first-pick search through the domain adversary, with and
     without a pool, must reproduce the exhaustive answer — damage AND
     domain set (DESIGN.md §15). *)
  let rng = Combin.Rng.create 7 in
  let inst = Placement.Instance.make ~b:80 ~r:3 ~s:2 ~n:24 ~k:3 () in
  let layout = Placement.Instance.random_layout ~rng inst in
  let tree = Topology.Build.regular ~racks:8 ~nodes_per_rack:3 in
  let j = 3 in
  let oracle = exhaustive layout ~s:2 tree ~level:1 ~j in
  let check_attack name (a : Topology.Adversary.attack) =
    Alcotest.(check bool) (name ^ ": exact") true a.Topology.Adversary.exact;
    Alcotest.(check int)
      (name ^ ": damage")
      oracle.Topology.Adversary.failed_objects
      a.Topology.Adversary.failed_objects;
    Alcotest.(check (array int))
      (name ^ ": domains")
      oracle.Topology.Adversary.failed_domains
      a.Topology.Adversary.failed_domains
  in
  check_attack "-j1" (Topology.Adversary.exact layout ~s:2 tree ~level:1 ~j);
  check_attack "-j4"
    (Engine.Pool.with_pool ~domains:4 (fun pool ->
         Topology.Adversary.exact ~pool layout ~s:2 tree ~level:1 ~j))

let test_adversary_greedy_le_exact =
  qtest ~count:30 "greedy damage <= exact damage"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Combin.Rng.create seed in
      let inst = Placement.Instance.make ~b:40 ~r:3 ~s:2 ~n:12 ~k:3 () in
      let layout = Placement.Instance.random_layout ~rng inst in
      let tree = Topology.Build.partition ~n:12 ~domains:5 () in
      let j = 1 + (seed mod 3) in
      let g = Topology.Adversary.greedy layout ~s:2 tree ~level:1 ~j in
      let e = exhaustive layout ~s:2 tree ~level:1 ~j in
      g.Topology.Adversary.failed_objects
      <= e.Topology.Adversary.failed_objects)

let test_adversary_exhaustive_vs_bb_shared_racks =
  (* The same contract at s = 3 and on partition trees with 3–5 racks
     over 12 nodes, where racks hold 2+ replicas of one object: the
     search's counting bound must respect those multiplicities. *)
  qtest ~count:40 "exhaustive = branch-and-bound, s=3, shared racks"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Combin.Rng.create seed in
      let r = 3 + (seed mod 2) in
      let s = 2 + (seed / 2 mod 2) in
      let inst = Placement.Instance.make ~b:60 ~r ~s ~n:12 ~k:3 () in
      let layout = Placement.Instance.random_layout ~rng inst in
      let domains = 3 + (seed / 4 mod 3) in
      let tree = Topology.Build.partition ~n:12 ~domains () in
      let j = 1 + (seed / 12 mod (domains - 1)) in
      let ex = exhaustive layout ~s tree ~level:1 ~j in
      let bb = Topology.Adversary.exact layout ~s tree ~level:1 ~j in
      ex.Topology.Adversary.exact && bb.Topology.Adversary.exact
      && ex.Topology.Adversary.failed_objects
         = bb.Topology.Adversary.failed_objects
      && ex.Topology.Adversary.failed_domains
         = bb.Topology.Adversary.failed_domains)

let test_adversary_validates () =
  let layout = fig4_layout ~n:31 ~b:600 ~k:3 in
  let tree = Topology.Build.flat 30 in
  Alcotest.(check bool) "n mismatch" true
    (raises_invalid (fun () ->
         Topology.Adversary.exact layout ~s:2 tree ~level:1 ~j:1));
  let tree31 = Topology.Build.flat 31 in
  Alcotest.(check bool) "j too big" true
    (raises_invalid (fun () ->
         Topology.Adversary.exact layout ~s:2 tree31 ~level:1 ~j:32))

(* ------------------------------------------------------------------ *)
(* Bound *)

let test_bound_refinement () =
  (* 13 nodes in 5 racks of sizes 3,3,2,3,2: the refined K beats
     j * max size as soon as the j largest racks are not all maximal. *)
  let tree = Topology.Build.partition ~n:13 ~domains:5 () in
  Alcotest.(check int) "K(j=1)" 3 (Topology.Bound.covered_nodes tree ~level:1 ~j:1);
  Alcotest.(check int) "K(j=5) = n" 13
    (Topology.Bound.covered_nodes tree ~level:1 ~j:5);
  let rep = Topology.Bound.load_report ~b:60 ~r:3 ~s:2 tree ~level:1 ~j:4 in
  Alcotest.(check int) "refined" 11 rep.Topology.Bound.covered_nodes;
  Alcotest.(check int) "naive" 12 rep.Topology.Bound.naive_nodes;
  Alcotest.(check bool) "refined <= naive" true
    (rep.Topology.Bound.covered_nodes <= rep.Topology.Bound.naive_nodes)

let test_bound_sound =
  (* The guarantee must hold against the real domain adversary on a
     Simple(0, lambda) placement (simple strategy = x=0 layout). *)
  qtest ~count:20 "lb <= adversary availability"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let inst = Placement.Instance.make ~b:60 ~r:3 ~s:2 ~n:12 ~k:3 () in
      let rng = Combin.Rng.create seed in
      let layout = Placement.Instance.random_layout ~rng inst in
      let tree = Topology.Build.regular ~racks:4 ~nodes_per_rack:3 in
      let j = 1 + (seed mod 2) in
      let lambda = Placement.Layout.max_load layout in
      let rep =
        Topology.Bound.si_report ~b:60 ~x:0 ~lambda ~s:2 tree ~level:1 ~j
      in
      let atk = Topology.Adversary.exact layout ~s:2 tree ~level:1 ~j in
      rep.Topology.Bound.si.Placement.Analysis.lb_clamped
      <= Topology.Adversary.avail layout atk)

(* ------------------------------------------------------------------ *)
(* Spread *)

let rack_domains ?(cap = 1) tree = Topology.Spec.domains tree ~level:1 ~cap

let test_spread_feasibility () =
  let tree = Topology.Build.regular ~racks:4 ~nodes_per_rack:5 in
  Alcotest.(check int) "slots cap=1" 4
    (Placement.Spread.slots (rack_domains ~cap:1 tree));
  Alcotest.(check int) "slots cap=2" 8
    (Placement.Spread.slots (rack_domains ~cap:2 tree));
  (match Placement.Spread.check_feasible (rack_domains tree) ~r:3 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Placement.Spread.check_feasible (rack_domains tree) ~r:5 with
  | Ok () -> Alcotest.fail "r=5 cap=1 on 4 racks should be infeasible"
  | Error e ->
      Alcotest.(check string) "actionable message"
        "cannot place r=5 replicas with at most 1 per rack: the 4 racks offer \
         only 4 replica slots (sum of min(cap, size)); raise the spread cap \
         or use a finer topology"
        e);
  Alcotest.(check bool) "simple raises when infeasible" true
    (raises_invalid (fun () ->
         Placement.Spread.simple (rack_domains tree) ~b:10 ~r:5))

let test_spread_cap_respected =
  qtest ~count:40 "spread planners respect the cap"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 2))
    (fun (seed, cap) ->
      let domains =
        rack_domains ~cap (Topology.Build.partition ~n:13 ~domains:5 ())
      in
      let r = 3 and b = 30 in
      let feasible = Placement.Spread.slots domains >= r in
      if not feasible then QCheck2.assume_fail ()
      else begin
        let simple = Placement.Spread.simple domains ~b ~r in
        let rng = Combin.Rng.create seed in
        let random = Placement.Spread.random ~rng domains ~b ~r in
        Placement.Spread.max_per_domain simple domains <= cap
        && Placement.Spread.max_per_domain random domains <= cap
        && well_formed simple && well_formed random
      end)

let test_spread_simple_deterministic () =
  let domains =
    rack_domains (Topology.Build.regular ~racks:4 ~nodes_per_rack:5)
  in
  let a = Placement.Spread.simple domains ~b:40 ~r:3 in
  let b = Placement.Spread.simple domains ~b:40 ~r:3 in
  Alcotest.(check bool) "identical replicas" true
    (a.Placement.Layout.replicas = b.Placement.Layout.replicas)

let test_spread_immunity () =
  (* cap=1, s=2: one rack failure kills zero objects. *)
  let tree = Topology.Build.regular ~racks:5 ~nodes_per_rack:4 in
  let layout = Placement.Spread.simple (rack_domains tree) ~b:50 ~r:3 in
  let atk = Topology.Adversary.exact layout ~s:2 tree ~level:1 ~j:1 in
  Alcotest.(check int) "zero objects die" 0 atk.Topology.Adversary.failed_objects

(* ------------------------------------------------------------------ *)
(* Strategies *)

let test_strategies_registered () =
  List.iter
    (fun name ->
      match Placement.Strategies.find name with
      | Some (module S) ->
          Alcotest.(check bool) (name ^ " is domain-capped") true
            (List.mem Placement.Strategy.Domain_capped S.capabilities)
      | None -> Alcotest.fail (name ^ " not listed"))
    [ "simple-spread"; "random-spread" ]

let test_strategies_domains () =
  let (module Simple) =
    Option.get (Placement.Strategies.find "simple-spread")
  in
  (* No map: every node its own domain, the map of a node:n topology. *)
  let node_map n =
    Topology.Spec.domains
      (Topology.Spec.parse_exn (Printf.sprintf "node:%d" n))
      ~level:0 ~cap:1
  in
  let inst = Placement.Instance.make ~b:40 ~r:3 ~s:2 ~n:20 ~k:3 () in
  Alcotest.(check bool) "default = node:20" true
    (Placement.Instance.domains inst = node_map 20);
  Alcotest.(check bool) "default map plans" true
    (Simple.lower_bound inst <> None);
  Alcotest.(check bool) "default map follows n" true
    (Placement.Instance.domains
       (Placement.Instance.with_params inst
          (Placement.Params.make ~b:40 ~r:3 ~s:2 ~n:21 ~k:3))
    = node_map 21);
  let tree = Topology.Build.regular ~racks:4 ~nodes_per_rack:5 in
  let domains = rack_domains tree in
  let inst = Placement.Instance.make ~domains ~b:40 ~r:3 ~s:2 ~n:20 ~k:3 () in
  let layout = Simple.plan inst in
  Alcotest.(check int) "spread respected" 1
    (Placement.Spread.max_per_domain layout domains);
  Alcotest.(check (option int)) "lower_bound from the plan"
    (Simple.lower_bound ~layout inst) (Simple.lower_bound inst);
  (* with_cell keeps the map; an infeasible cap declines quietly. *)
  let cell = Placement.Instance.with_cell inst ~b:10 ~k:2 in
  Alcotest.(check bool) "with_cell keeps the map" true
    (Placement.Instance.domains cell == domains);
  let wide = Placement.Instance.make ~domains ~b:40 ~r:5 ~s:2 ~n:20 ~k:3 () in
  Alcotest.(check bool) "infeasible plan raises" true
    (raises_invalid (fun () -> Simple.plan wide));
  Alcotest.(check (option int)) "infeasible lower_bound declines" None
    (Simple.lower_bound wide);
  (* A map for the wrong cluster size, or a cap below 1, is rejected at
     make; so is changing n under an explicit map. *)
  Alcotest.(check bool) "n mismatch raises at make" true
    (raises_invalid (fun () ->
         Placement.Instance.make ~domains ~b:10 ~r:3 ~s:2 ~n:9 ~k:3 ()));
  Alcotest.(check bool) "cap 0 raises at make" true
    (raises_invalid (fun () ->
         Placement.Instance.make
           ~domains:{ domains with Placement.Spread.cap = 0 }
           ~b:10 ~r:3 ~s:2 ~n:20 ~k:3 ()));
  Alcotest.(check bool) "with_params n change raises" true
    (raises_invalid (fun () ->
         Placement.Instance.with_params inst
           (Placement.Params.make ~b:10 ~r:3 ~s:2 ~n:21 ~k:3)))

let () =
  Alcotest.run "topology"
    [
      ( "tree",
        [
          Alcotest.test_case "make and accessors" `Quick test_tree_make;
          Alcotest.test_case "invalid trees" `Quick test_tree_invalid;
          Alcotest.test_case "builders" `Quick test_build;
          Alcotest.test_case "spec" `Quick test_spec;
          Alcotest.test_case "failset" `Quick test_failset;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "flat = node adversary" `Quick
            test_adversary_flat_equals_node;
          test_adversary_exhaustive_vs_bb;
          test_adversary_jobs_identical;
          Alcotest.test_case "-j1/-j4 = exhaustive" `Quick
            test_adversary_pool_vs_exhaustive;
          test_adversary_greedy_le_exact;
          Alcotest.test_case "validation" `Quick test_adversary_validates;
          test_adversary_exhaustive_vs_bb_shared_racks;
        ] );
      ( "bound",
        [
          Alcotest.test_case "refinement" `Quick test_bound_refinement;
          test_bound_sound;
        ] );
      ( "spread",
        [
          Alcotest.test_case "feasibility" `Quick test_spread_feasibility;
          test_spread_cap_respected;
          Alcotest.test_case "deterministic" `Quick
            test_spread_simple_deterministic;
          Alcotest.test_case "immunity" `Quick test_spread_immunity;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "registered" `Quick test_strategies_registered;
          Alcotest.test_case "plan on the instance's domains" `Quick
            test_strategies_domains;
        ] );
    ]
