(* Tests for Engine.Pool and Engine.Bound, and for the determinism
   contract of the layers built on them: running the parallel adversary
   or the Monte-Carlo harness at -j 1 and at -j 4 must produce
   bit-identical results (same seeds are split before dispatch, results
   are placed by index, ties go to the lowest index). *)

let qtest ?(count = 100) name gen prop =
  (* Fixed random state: property tests must be reproducible. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xC0FFEE |])
    (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Pool unit tests *)

let test_map_ordering () =
  Engine.Pool.with_pool ~domains:4 (fun pool ->
      let xs = Array.init 1000 Fun.id in
      let ys = Engine.Pool.parallel_map pool (fun x -> x * x) xs in
      Alcotest.(check (array int))
        "squares, input order" (Array.map (fun x -> x * x) xs) ys;
      Alcotest.(check (array int))
        "empty input" [||] (Engine.Pool.parallel_map pool (fun x -> x) [||]))

let test_map_sequential_pool () =
  (* ~domains:1 is the reference path: no workers, everything inline. *)
  Engine.Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "domains" 1 (Engine.Pool.domains pool);
      let ys =
        Engine.Pool.parallel_map pool (fun i -> 2 * i) (Array.init 17 Fun.id)
      in
      Alcotest.(check (array int)) "map" (Array.init 17 (fun i -> 2 * i)) ys)

exception Boom of int

let test_exception_propagation () =
  Engine.Pool.with_pool ~domains:4 (fun pool ->
      let xs = Array.init 64 Fun.id in
      (match
         Engine.Pool.parallel_map pool
           (fun i -> if i mod 7 = 3 then raise (Boom i) else i)
           xs
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          Alcotest.(check int) "lowest-indexed exception wins" 3 i);
      (* The failed batch must leave the pool usable. *)
      let ys = Engine.Pool.parallel_map pool Fun.id xs in
      Alcotest.(check (array int)) "pool survives a failed batch" xs ys)

let test_nested_use_rejected () =
  Engine.Pool.with_pool ~domains:2 (fun pool ->
      (match
         Engine.Pool.parallel_map pool
           (fun _ -> Engine.Pool.parallel_map pool Fun.id [| 1 |])
           [| 0; 1; 2 |]
       with
      | _ -> Alcotest.fail "expected Nested_use"
      | exception Engine.Pool.Nested_use -> ());
      let ys = Engine.Pool.parallel_map pool Fun.id [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool survives rejection" [| 1; 2; 3 |] ys)

let test_bound () =
  let b = Engine.Bound.create 5 in
  Alcotest.(check bool) "no improvement" false (Engine.Bound.improve b 5);
  Alcotest.(check bool) "worse" false (Engine.Bound.improve b 3);
  Alcotest.(check bool) "better" true (Engine.Bound.improve b 9);
  Alcotest.(check int) "value" 9 (Engine.Bound.get b)

(* ------------------------------------------------------------------ *)
(* -j 1 vs -j 4 determinism properties *)

let layout_case_gen =
  QCheck2.Gen.(
    let* n = int_range 6 14 in
    let* r = int_range 2 (min 4 (n - 2)) in
    let* b = int_range 1 30 in
    let* seed = int_range 0 10000 in
    let rng = Combin.Rng.create seed in
    let replicas =
      Array.init b (fun _ -> Combin.Rng.sample_distinct rng ~n ~k:r)
    in
    let* s = int_range 1 r in
    let* k = int_range s (n - 1) in
    return (Placement.Layout.make ~n ~r replicas, seed, s, k))

let same_attack (a : Placement.Adversary.attack)
    (b : Placement.Adversary.attack) =
  a.Placement.Adversary.failed_objects = b.Placement.Adversary.failed_objects
  && a.Placement.Adversary.failed_nodes = b.Placement.Adversary.failed_nodes
  && a.Placement.Adversary.exact = b.Placement.Adversary.exact

(* Beside the generated layouts (n <= 14), one larger grafted input:
   the CLI's --random 32,600,3,12 instance at s = 2, k = 6. *)
let test_exact_deterministic =
  let cli_instance =
    Placement.Random_placement.place ~rng:(Combin.Rng.create 12)
      (Placement.Params.make ~b:600 ~r:3 ~s:2 ~n:32 ~k:6)
  in
  qtest ~count:30 "Adversary.exact: -j 1 = -j 4"
    (QCheck2.Gen.graft_corners layout_case_gen [ (cli_instance, 12, 2, 6) ] ())
    (fun (layout, _seed, s, k) ->
      let run pool = Placement.Adversary.exact ?pool layout ~s ~k in
      let seq = run None in
      let par = Engine.Pool.with_pool ~domains:4 (fun p -> run (Some p)) in
      same_attack seq par)

(* A node budget far below the search tree truncates the exact search
   at any -j: both adversaries then report their greedy attack with
   [exact = false], identically with and without a pool, even though
   which nodes the pooled run spent the budget on varies. *)
let test_truncation_deterministic () =
  let layout n b seed =
    Placement.Random_placement.place ~rng:(Combin.Rng.create seed)
      (Placement.Params.make ~b ~r:3 ~s:2 ~n ~k:6)
  in
  let budget = 50 in
  let with_j4 f = Engine.Pool.with_pool ~domains:4 (fun p -> f (Some p)) in
  let nodes = layout 40 800 1 in
  let node pool = Placement.Adversary.exact ~budget ?pool nodes ~s:2 ~k:6 in
  let greedy = Placement.Adversary.greedy nodes ~s:2 ~k:6 in
  Alcotest.(check bool) "node -j1: greedy, not exact" true
    (same_attack greedy (node None));
  Alcotest.(check bool) "node -j4: greedy, not exact" true
    (same_attack greedy (with_j4 node));
  let domains = layout 48 900 2 in
  let tree = Topology.Build.regular ~racks:24 ~nodes_per_rack:2 in
  let domain pool =
    Topology.Adversary.exact ~budget ?pool domains ~s:2 tree ~level:1 ~j:6
  in
  let greedy = Topology.Adversary.greedy domains ~s:2 tree ~level:1 ~j:6 in
  Alcotest.(check bool) "domain -j1: greedy, not exact" true
    (domain None = greedy);
  Alcotest.(check bool) "domain -j4: greedy, not exact" true
    (with_j4 domain = greedy)

let test_montecarlo_deterministic =
  qtest ~count:15 "Montecarlo.avg_avail_random: -j 1 = -j 4"
    QCheck2.Gen.(
      let* n = int_range 6 12 in
      let* r = int_range 2 (min 4 (n - 2)) in
      let* s = int_range 1 r in
      let* k = int_range s (n - 1) in
      let* b = int_range 1 25 in
      let* seed = int_range 0 1000 in
      return (n, r, s, k, b, seed))
    (fun (n, r, s, k, b, seed) ->
      let p = Placement.Params.make ~b ~r ~s ~n ~k in
      let run pool =
        Dsim.Montecarlo.avg_avail_random ?pool
          ~rng:(Combin.Rng.create seed) ~trials:6 p
      in
      let seq = run None in
      let par = Engine.Pool.with_pool ~domains:4 (fun pl -> run (Some pl)) in
      seq.Dsim.Montecarlo.avails = par.Dsim.Montecarlo.avails
      && seq.Dsim.Montecarlo.mean = par.Dsim.Montecarlo.mean
      && seq.Dsim.Montecarlo.stddev = par.Dsim.Montecarlo.stddev)

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map ordering" `Quick test_map_ordering;
          Alcotest.test_case "domains:1 reference path" `Quick
            test_map_sequential_pool;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested use rejected" `Quick
            test_nested_use_rejected;
          Alcotest.test_case "bound cell" `Quick test_bound;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "exact truncation: greedy fallback, -j1 = -j4"
            `Quick test_truncation_deterministic;
          test_exact_deterministic;
          test_montecarlo_deterministic;
        ] );
    ]
