(* Tests for the core placement library: Simple, Combo (DP), Random,
   the adversary, and both analysis modules. *)

let qtest ?(count = 100) name gen prop =
  (* Fixed random state: property tests must be reproducible. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xC0FFEE |])
    (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_validation () =
  let ok = Placement.Params.make ~b:10 ~r:3 ~s:2 ~n:9 ~k:3 in
  Alcotest.(check int) "b" 10 ok.Placement.Params.b;
  let bad b r s n k =
    match Placement.Params.validate { Placement.Params.b; r; s; n; k } with
    | Ok _ -> false
    | Error _ -> true
  in
  Alcotest.(check bool) "s > r" true (bad 10 3 4 9 4);
  Alcotest.(check bool) "k < s" true (bad 10 3 2 9 1);
  Alcotest.(check bool) "k >= n" true (bad 10 3 2 9 9);
  Alcotest.(check bool) "n < r" true (bad 10 3 2 2 2);
  Alcotest.(check bool) "b = 0" true (bad 0 3 2 9 2)

let test_load_cap () =
  let p = Placement.Params.make ~b:10 ~r:3 ~s:2 ~n:9 ~k:3 in
  Alcotest.(check int) "ceil(30/9)" 4 (Placement.Params.load_cap p);
  Alcotest.(check (float 1e-9)) "avg load" (30.0 /. 9.0) (Placement.Params.average_load p)

(* ------------------------------------------------------------------ *)
(* Layout *)

let layout_gen =
  QCheck2.Gen.(
    let* n = int_range 5 12 in
    let* r = int_range 2 (min 4 n) in
    let* b = int_range 1 25 in
    let* seed = int_range 0 10000 in
    let rng = Combin.Rng.create seed in
    let replicas = Array.init b (fun _ -> Combin.Rng.sample_distinct rng ~n ~k:r) in
    return (Placement.Layout.make ~n ~r replicas))

(* The node → objects index as boxed rows, for naive reference code. *)
let node_rows layout =
  let inc = Placement.Layout.incidence layout in
  Array.init layout.Placement.Layout.n (Combin.Csr.row inc)

let test_layout_incidence_inverse =
  qtest "incidence inverts replicas" layout_gen (fun layout ->
      let node_objs = node_rows layout in
      let ok = ref true in
      Array.iteri
        (fun obj rep ->
          Array.iter
            (fun nd ->
              if not (Array.exists (fun o -> o = obj) node_objs.(nd)) then
                ok := false)
            rep)
        layout.Placement.Layout.replicas;
      let total = Array.fold_left (fun acc objs -> acc + Array.length objs) 0 node_objs in
      !ok
      && Array.for_all Combin.Intset.is_sorted_distinct node_objs
      && total = layout.Placement.Layout.r * Placement.Layout.b layout)

let test_layout_failed_objects_bruteforce =
  qtest "failed_objects matches per-object recount"
    QCheck2.Gen.(pair layout_gen (int_range 0 10000))
    (fun (layout, seed) ->
      let rng = Combin.Rng.create seed in
      let n = layout.Placement.Layout.n in
      let k = 1 + Combin.Rng.int rng (n - 1) in
      let failed = Combin.Rng.sample_distinct rng ~n ~k in
      List.for_all
        (fun s ->
          let direct =
            Array.fold_left
              (fun acc rep ->
                let hit =
                  Array.fold_left
                    (fun c nd -> if Combin.Intset.mem failed nd then c + 1 else c)
                    0 rep
                in
                if hit >= s then acc + 1 else acc)
              0 layout.Placement.Layout.replicas
          in
          direct = Placement.Layout.failed_objects layout ~s ~failed_nodes:failed)
        [ 1; 2; layout.Placement.Layout.r ])

let test_layout_scatter_widths () =
  (* STS(7) covers every pair, so each node co-hosts with all 6 others. *)
  let sts = Designs.Steiner_triple.make 7 in
  let layout = (Placement.Simple.of_design sts ~n:7 ~b:7).Placement.Simple.layout in
  Alcotest.(check (array int)) "full scatter" (Array.make 7 6)
    (Placement.Layout.scatter_widths layout);
  (* A single pair placement: the two nodes see each other only. *)
  let tiny = Placement.Layout.make ~n:4 ~r:2 [| [| 1; 3 |] |] in
  Alcotest.(check (array int)) "tiny scatter" [| 0; 1; 0; 1 |]
    (Placement.Layout.scatter_widths tiny)

let test_layout_concat () =
  let l1 = Placement.Layout.make ~n:6 ~r:2 [| [| 0; 1 |]; [| 2; 3 |] |] in
  let l2 = Placement.Layout.make ~n:6 ~r:2 [| [| 4; 5 |] |] in
  let c = Placement.Layout.concat [ l1; l2 ] in
  Alcotest.(check int) "3 objects" 3 (Placement.Layout.b c);
  Alcotest.(check (array int)) "appended replica" [| 4; 5 |]
    c.Placement.Layout.replicas.(2)

(* ------------------------------------------------------------------ *)
(* Analysis (Lemma 2 / Theorem 1 / Eqn 1) *)

let test_lambda_min () =
  (* STS(69): capacity 782 per copy. *)
  Alcotest.(check int) "b=600 -> 1" 1
    (Placement.Analysis.lambda_min ~x:1 ~nx:69 ~r:3 ~mu:1 ~b:600);
  Alcotest.(check int) "b=782 -> 1" 1
    (Placement.Analysis.lambda_min ~x:1 ~nx:69 ~r:3 ~mu:1 ~b:782);
  Alcotest.(check int) "b=783 -> 2" 2
    (Placement.Analysis.lambda_min ~x:1 ~nx:69 ~r:3 ~mu:1 ~b:783);
  Alcotest.(check int) "b=9600 -> 13" 13
    (Placement.Analysis.lambda_min ~x:1 ~nx:69 ~r:3 ~mu:1 ~b:9600)

let test_lambda_min_eqn1 =
  qtest "Eqn 1 bracketing"
    QCheck2.Gen.(pair (int_range 1 3000) (int_range 1 3))
    (fun (b, mu) ->
      let lambda = Placement.Analysis.lambda_min ~x:1 ~nx:69 ~r:3 ~mu ~b in
      let cap l = l * Combin.Binomial.exact 69 2 / Combin.Binomial.exact 3 2 in
      lambda mod mu = 0 && b <= cap lambda && (lambda = mu || cap (lambda - mu) < b))

let test_lb_avail_si () =
  (* b - floor(lambda C(k,2)/C(s,2)) for x = 1. *)
  let r1 = Placement.Analysis.lb_avail_si_report ~b:600 ~x:1 ~lambda:1 ~k:4 ~s:3 () in
  Alcotest.(check int) "s=3,k=4,l=1" (600 - 2) r1.Placement.Analysis.lb;
  Alcotest.(check int) "failed_ub" 2 r1.Placement.Analysis.failed_ub;
  Alcotest.(check bool) "not vacuous" false r1.Placement.Analysis.vacuous;
  let r2 = Placement.Analysis.lb_avail_si_report ~b:1200 ~x:1 ~lambda:2 ~k:5 ~s:2 () in
  Alcotest.(check int) "s=2,k=5,l=2" (1200 - 20) r2.Placement.Analysis.lb;
  (* A vacuous cell: the adversary bound exceeds b. *)
  let r3 = Placement.Analysis.lb_avail_si_report ~b:5 ~x:1 ~lambda:4 ~k:6 ~s:2 () in
  Alcotest.(check bool) "vacuous" true r3.Placement.Analysis.vacuous;
  Alcotest.(check int) "clamped to 0" 0 r3.Placement.Analysis.lb_clamped

let test_theorem1 () =
  (match Placement.Analysis.theorem1 ~x:1 ~nx:69 ~r:3 ~s:3 ~k:5 ~mu:1 with
  | None -> Alcotest.fail "precondition should hold"
  | Some { c; alpha } ->
      Alcotest.(check bool) "c > 1" true (c > 1.0);
      Alcotest.(check bool) "alpha > 0" true (alpha > 0.0);
      (* s = r: c = 1/(1 - C(k,2)/C(69,2)) *)
      let expect = 1.0 /. (1.0 -. (10.0 /. 2346.0)) in
      Alcotest.(check (float 1e-9)) "c closed form" expect c);
  (* Precondition failure: k huge. *)
  Alcotest.(check bool) "None when c <= 0" true
    (Placement.Analysis.theorem1 ~x:0 ~nx:10 ~r:5 ~s:1 ~k:9 ~mu:1 = None)

let test_competitive_limit () =
  Alcotest.(check (float 1e-9)) "1 - k(k-1)/(n(n-1))"
    (1.0 -. (20.0 /. 4692.0))
    (Placement.Analysis.competitive_limit_fraction ~x:1 ~nx:69 ~k:5)

(* ------------------------------------------------------------------ *)
(* Simple placements *)

let test_simple_of_design_lambda () =
  let sts = Designs.Steiner_triple.make 9 in
  (* capacity 12 *)
  let s1 = Placement.Simple.of_design sts ~n:12 ~b:10 in
  Alcotest.(check int) "lambda 1" 1 s1.Placement.Simple.lambda;
  let s2 = Placement.Simple.of_design sts ~n:12 ~b:13 in
  Alcotest.(check int) "lambda 2" 2 s2.Placement.Simple.lambda;
  Alcotest.(check int) "b objects" 13 (Placement.Layout.b s2.Placement.Simple.layout)

(* Direct check of Definition 2: no (x+1)-subset of nodes hosts more than
   lambda objects in common. *)
let simple_property layout ~x ~lambda =
  let counts = Hashtbl.create 256 in
  Array.iter
    (fun rep ->
      Combin.Subset.sub_iter rep ~k:(x + 1) (fun sub ->
          let key = Array.to_list sub in
          Hashtbl.replace counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))))
    layout.Placement.Layout.replicas;
  Hashtbl.fold (fun _ c acc -> acc && c <= lambda) counts true

let test_simple_satisfies_definition2 =
  qtest ~count:40 "Simple placements satisfy Definition 2"
    QCheck2.Gen.(int_range 1 60)
    (fun b ->
      let sts = Designs.Steiner_triple.make 13 in
      let s = Placement.Simple.of_design sts ~n:15 ~b in
      simple_property s.Placement.Simple.layout ~x:1 ~lambda:s.Placement.Simple.lambda)

let test_simple_spread_keeps_definition2 =
  qtest ~count:40 "spread copies still satisfy Definition 2"
    QCheck2.Gen.(int_range 13 80)
    (fun b ->
      let sts = Designs.Steiner_triple.make 13 in
      let s = Placement.Simple.of_design ~spread:true sts ~n:17 ~b in
      simple_property s.Placement.Simple.layout ~x:1
        ~lambda:s.Placement.Simple.lambda)

let test_simple_spread_same_lambda () =
  let sts = Designs.Steiner_triple.make 13 in
  let plain = Placement.Simple.of_design sts ~n:17 ~b:80 in
  let spread = Placement.Simple.of_design ~spread:true sts ~n:17 ~b:80 in
  Alcotest.(check int) "same lambda" plain.Placement.Simple.lambda
    spread.Placement.Simple.lambda;
  (* Spreading must reach nodes beyond the design's 13 points. *)
  let loads = Placement.Layout.loads spread.Placement.Simple.layout in
  Alcotest.(check bool) "extra nodes used" true
    (Array.exists (fun nd -> loads.(nd) > 0) [| 13; 14; 15; 16 |])

let test_simple_of_entry_complete () =
  (* Complete (t = r) entries stream lazily. *)
  match Designs.Registry.best ~strength:3 ~block_size:3 ~max_v:10 () with
  | None -> Alcotest.fail "no complete entry"
  | Some e ->
      let s = Placement.Simple.of_entry e ~n:10 ~b:50 in
      Alcotest.(check int) "50 objects" 50 (Placement.Layout.b s.Placement.Simple.layout);
      Alcotest.(check bool) "Definition 2 for x=2" true
        (simple_property s.Placement.Simple.layout ~x:2 ~lambda:s.Placement.Simple.lambda)

let test_simple_lower_bound_nonneg =
  qtest ~count:40 "lower_bound clamped at 0"
    QCheck2.Gen.(pair (int_range 1 80) (int_range 2 6))
    (fun (b, k) ->
      let sts = Designs.Steiner_triple.make 9 in
      let s = Placement.Simple.of_design sts ~n:12 ~b in
      Placement.Simple.lower_bound s ~k ~s:2 >= 0)

(* ------------------------------------------------------------------ *)
(* Combo DP *)

let synthetic_levels_gen s =
  QCheck2.Gen.(
    let* caps =
      array_size (return s) (int_range 1 40)
    in
    let* mus = array_size (return s) (int_range 1 3) in
    return
      (Array.init s (fun x ->
           {
             Placement.Combo.x;
             nx = 100;
             mu = mus.(x);
             cap_mu = caps.(x) * mus.(x);
             entry = None;
           })))

let test_combo_dp_matches_bruteforce =
  qtest ~count:60 "DP equals exhaustive search"
    QCheck2.Gen.(
      let* s = int_range 1 3 in
      let* levels = synthetic_levels_gen s in
      let* b = int_range 1 120 in
      let* k = int_range s 8 in
      return (s, levels, b, k))
    (fun (s, levels, b, k) ->
      let p = Placement.Params.make ~b ~r:8 ~s ~n:100 ~k in
      let cfg = Placement.Combo.optimize ~levels p in
      let brute = Placement.Combo.brute_force_lb p ~levels in
      cfg.Placement.Combo.lb = brute)

let test_combo_assignment_covers_b =
  qtest ~count:60 "assigned sums to b and respects capacity"
    QCheck2.Gen.(
      let* s = int_range 1 3 in
      let* levels = synthetic_levels_gen s in
      let* b = int_range 1 150 in
      return (s, levels, b))
    (fun (s, levels, b) ->
      let p = Placement.Params.make ~b ~r:8 ~s ~n:100 ~k:s in
      let cfg = Placement.Combo.optimize ~levels p in
      let total = Array.fold_left ( + ) 0 cfg.Placement.Combo.assigned in
      total = b
      && Array.for_all
           (fun x ->
             let lam = cfg.Placement.Combo.lambdas.(x) in
             let lvl = levels.(x) in
             lam mod lvl.Placement.Combo.mu = 0
             && cfg.Placement.Combo.assigned.(x)
                <= lam / lvl.Placement.Combo.mu * lvl.Placement.Combo.cap_mu)
           (Array.init s (fun i -> i)))

let test_combo_lb_sound_small () =
  (* The availability lower bound must hold against the exact adversary on
     materialized placements. *)
  List.iter
    (fun (n, r, s, b, k) ->
      let p = Placement.Params.make ~b ~r ~s ~n ~k in
      let cfg = Placement.Combo.optimize p in
      let layout = Placement.Combo.materialize cfg in
      let attack = Placement.Adversary.exact layout ~s ~k in
      Alcotest.(check bool) "exact search completed" true
        attack.Placement.Adversary.exact;
      let avail = Placement.Adversary.avail layout ~s attack in
      Alcotest.(check bool)
        (Printf.sprintf "lb %d <= avail %d (n=%d r=%d s=%d b=%d k=%d)"
           cfg.Placement.Combo.lb avail n r s b k)
        true
        (cfg.Placement.Combo.lb <= avail))
    [
      (9, 3, 2, 20, 2);
      (9, 3, 2, 20, 3);
      (13, 3, 3, 40, 3);
      (13, 3, 2, 30, 4);
      (16, 4, 2, 25, 2);
      (16, 4, 3, 25, 3);
    ]

let test_combo_lb_avail_co_at_k () =
  let p = Placement.Params.make ~b:1200 ~r:5 ~s:3 ~n:71 ~k:6 in
  let cfg = Placement.Combo.optimize p in
  Alcotest.(check int) "Eqn 4 at configured k" cfg.Placement.Combo.lb
    (Placement.Combo.lb_avail_co cfg ~k:6);
  Alcotest.(check bool) "monotone in k" true
    (Placement.Combo.lb_avail_co cfg ~k:7 <= Placement.Combo.lb_avail_co cfg ~k:6)

let test_combo_insufficient_capacity () =
  let levels =
    [| { Placement.Combo.x = 0; nx = 0; mu = 1; cap_mu = 0; entry = None } |]
  in
  Alcotest.(check bool) "raises on impossible b" true
    (try
       ignore
         (Placement.Combo.optimize ~levels
            (Placement.Params.make ~b:10 ~r:3 ~s:1 ~n:9 ~k:1));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Adaptive (online) placement *)

let test_adaptive_matches_offline () =
  (* Pure growth should track the offline DP exactly at design-capacity
     multiples (n=31, STS level capacity 155). *)
  let t = Placement.Adaptive.create ~n:31 ~r:3 ~s:2 ~k:3 () in
  List.iter
    (fun target ->
      let deficit = target - Placement.Adaptive.size t in
      ignore (Placement.Adaptive.add_many t deficit);
      Alcotest.(check int)
        (Printf.sprintf "b=%d online = offline" target)
        (Placement.Adaptive.optimal_bound t)
        (Placement.Adaptive.lower_bound t))
    [ 155; 310; 600 ]

let test_adaptive_bound_sound () =
  let t = Placement.Adaptive.create ~n:13 ~r:3 ~s:2 ~k:3 () in
  ignore (Placement.Adaptive.add_many t 60);
  let layout = Placement.Adaptive.layout t in
  let attack = Placement.Adversary.exact layout ~s:2 ~k:3 in
  Alcotest.(check bool) "exact adversary" true attack.Placement.Adversary.exact;
  Alcotest.(check bool) "lb <= avail" true
    (Placement.Adaptive.lower_bound t
    <= Placement.Adversary.avail layout ~s:2 attack)

let test_adaptive_churn_invariants =
  (* The churn-engine contract: not just at the end, but after EVERY
     add/remove the bookkeeping must be consistent and the live Lemma-3
     bound must stay at or below what the offline DP would promise for
     the same population. *)
  qtest ~count:25 "invariants survive random churn at every step"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 10 120))
    (fun (seed, ops) ->
      let rng = Combin.Rng.create seed in
      let t = Placement.Adaptive.create ~n:13 ~r:3 ~s:2 ~k:3 () in
      let live = ref [] in
      for _ = 1 to ops do
        if !live = [] || Combin.Rng.int rng 3 > 0 then
          live := Placement.Adaptive.add t :: !live
        else begin
          let arr = Array.of_list !live in
          let victim = arr.(Combin.Rng.int rng (Array.length arr)) in
          Placement.Adaptive.remove t victim;
          live := List.filter (fun id -> id <> victim) !live
        end;
        Placement.Adaptive.check_invariants t;
        assert (
          Placement.Adaptive.lower_bound t
          <= Placement.Adaptive.optimal_bound t)
      done;
      Placement.Adaptive.size t = List.length !live
      && List.for_all
           (fun id ->
             let rep = Placement.Adaptive.replica_set t id in
             Array.length rep = 3 && Combin.Intset.is_sorted_distinct rep)
           !live)

let test_adaptive_membership_invariants =
  (* The min-index and the open list under every operation that moves
     them: add, remove, retire (each object on the node is replaced, or
     removed when no slot is left) and rejoin.  s = 3 covers the lazy
     complete level, whose pool and index grow on demand. *)
  qtest ~count:60 "invariants survive random membership churn"
    QCheck2.Gen.(
      quad (int_range 7 31) (int_range 2 3) (int_range 0 10000)
        (int_range 20 200))
    (fun (n, s, seed, ops) ->
      let module A = Placement.Adaptive in
      let rng = Combin.Rng.create seed in
      let t = A.create ~n ~r:3 ~s ~k:2 () in
      let live = Hashtbl.create 64 in
      let live_ids () =
        List.sort compare (Hashtbl.fold (fun id () l -> id :: l) live [])
      in
      for _ = 1 to ops do
        (match Combin.Rng.int rng 8 with
        | 0 | 1 | 2 | 3 ->
            if A.has_capacity t then Hashtbl.replace live (A.add t) ()
        | 4 | 5 -> (
            match live_ids () with
            | [] -> ()
            | ids ->
                let victim =
                  List.nth ids (Combin.Rng.int rng (List.length ids))
                in
                A.remove t victim;
                Hashtbl.remove live victim)
        | 6 ->
            let nd = Combin.Rng.int rng n in
            if (not (A.retired t nd)) && A.retired_count t < n / 3 then begin
              A.retire_node t nd;
              List.iter
                (fun id ->
                  if Array.mem nd (A.replica_set t id) then
                    match A.replace t id with
                    | () -> ()
                    | exception Invalid_argument _ ->
                        A.remove t id;
                        Hashtbl.remove live id)
                (live_ids ())
            end
        | _ ->
            let nd = Combin.Rng.int rng n in
            if A.retired t nd then A.unretire_node t nd);
        A.check_invariants t
      done;
      A.size t = Hashtbl.length live)

let test_adaptive_incidence_rebuilt () =
  (* The node -> blocks index is built on the first retire and must be
     rebuilt once the lazy complete level (s = 3) has grown past it: a
     stale index misses the new blocks through a retiring node, which
     check_invariants reports as a blocked count off by one.  Creates
     grow the lazy level between every retire and rejoin, and the
     invariants (the index against [members] among them) are checked
     after every step. *)
  let module A = Placement.Adaptive in
  let n = 13 in
  let t = A.create ~n ~r:3 ~s:3 ~k:2 () in
  let live = ref [] in
  let lazy_after_index = ref 0 in
  let indexed = ref false in
  for round = 0 to 59 do
    for _ = 1 to 4 do
      let id = A.add t in
      live := id :: !live;
      if !indexed && A.level_of t id = 2 then incr lazy_after_index;
      A.check_invariants t
    done;
    let nd = round * 5 mod n in
    if A.retired t nd then A.unretire_node t nd
    else if A.retired_count t < 3 then begin
      A.retire_node t nd;
      indexed := true;
      List.iter
        (fun id -> if Array.mem nd (A.replica_set t id) then A.replace t id)
        (List.rev !live)
    end;
    A.check_invariants t
  done;
  Alcotest.(check bool) "the lazy level grew after the index was built" true
    (!lazy_after_index > 20);
  Alcotest.(check int) "population kept" (List.length !live) (A.size t)

let test_adaptive_hint_list_bounded () =
  (* A delete on a block below the maximum usage pushes it onto the
     open list even when it is already listed, and the create that
     takes it back leaves the block below the maximum, so it is pushed
     again.  The push moves the block to the front, so the list holds
     at most one entry per block: check_invariants fails on a block
     listed twice, through 10^4 such delete/create cycles. *)
  let module A = Placement.Adaptive in
  let t = A.create ~n:13 ~r:3 ~s:2 ~k:2 () in
  let ids = ref [] in
  while (A.lambdas t).(1) <= 2 do
    ids := A.add t :: !ids
  done;
  (* Open a slot two below the maximum: take one object off a block that
     is below the maximum usage. *)
  let count id =
    let rs = A.replica_set t id in
    List.length (List.filter (fun id' -> A.replica_set t id' = rs) !ids)
  in
  let top = List.fold_left (fun m id -> max m (count id)) 0 !ids in
  let victim = List.find (fun id -> count id < top) (List.rev !ids) in
  A.remove t victim;
  let newest = ref (A.add t) in
  for _ = 1 to 10_000 do
    A.remove t !newest;
    newest := A.add t;
    A.check_invariants t
  done;
  Alcotest.(check int) "population kept" (List.length !ids) (A.size t)

let test_adaptive_layout_definition2 () =
  (* The live layout must satisfy Definition 2 at the effective λ of
     each level. *)
  let t = Placement.Adaptive.create ~n:13 ~r:3 ~s:2 ~k:3 () in
  let ids = Placement.Adaptive.add_many t 80 in
  List.iteri (fun i id -> if i mod 3 = 0 then Placement.Adaptive.remove t id) ids;
  ignore (Placement.Adaptive.add_many t 30);
  let lambdas = Placement.Adaptive.lambdas t in
  (* Group live objects per level and check each level separately. *)
  let per_level = Hashtbl.create 4 in
  Hashtbl.reset per_level;
  let layout = Placement.Adaptive.layout t in
  ignore layout;
  let live =
    List.filter
      (fun id ->
        match Placement.Adaptive.replica_set t id with
        | _ -> true
        | exception Not_found -> false)
      (List.init 200 (fun i -> i))
  in
  List.iter
    (fun id ->
      let x = Placement.Adaptive.level_of t id in
      let cur = Option.value ~default:[] (Hashtbl.find_opt per_level x) in
      Hashtbl.replace per_level x (Placement.Adaptive.replica_set t id :: cur))
    live;
  Hashtbl.iter
    (fun x reps ->
      let counts = Hashtbl.create 64 in
      List.iter
        (fun rep ->
          Combin.Subset.sub_iter rep ~k:(x + 1) (fun sub ->
              let key = Array.to_list sub in
              Hashtbl.replace counts key
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))))
        reps;
      Hashtbl.iter
        (fun _ c ->
          Alcotest.(check bool)
            (Printf.sprintf "Definition 2 at level %d" x)
            true
            (c <= lambdas.(x)))
        counts)
    per_level

let test_adaptive_remove_unknown () =
  let t = Placement.Adaptive.create ~n:13 ~r:3 ~s:2 ~k:3 () in
  Alcotest.check_raises "remove unknown" Not_found (fun () ->
      Placement.Adaptive.remove t 42)

let test_adaptive_ids_not_reused () =
  let t = Placement.Adaptive.create ~n:13 ~r:3 ~s:2 ~k:3 () in
  let a = Placement.Adaptive.add t in
  Placement.Adaptive.remove t a;
  let b = Placement.Adaptive.add t in
  Alcotest.(check bool) "fresh id" true (b <> a)

(* ------------------------------------------------------------------ *)
(* Random placement *)

let test_random_respects_cap =
  qtest ~count:40 "load cap respected"
    QCheck2.Gen.(
      let* n = int_range 6 40 in
      let* r = int_range 2 5 in
      let* b = int_range 1 200 in
      let* seed = int_range 0 100000 in
      return (n, max 2 (min r n), b, seed))
    (fun (n, r, b, seed) ->
      let s = 1 and k = 1 in
      let p = Placement.Params.make ~b ~r ~s ~n ~k in
      let rng = Combin.Rng.create seed in
      let layout = Placement.Random_placement.place ~rng p in
      Placement.Layout.b layout = b
      && Placement.Layout.is_load_balanced layout ~cap:(Placement.Params.load_cap p))

let test_random_deterministic () =
  let p = Placement.Params.make ~b:60 ~r:3 ~s:2 ~n:12 ~k:2 in
  let l1 = Placement.Random_placement.place ~rng:(Combin.Rng.create 5) p in
  let l2 = Placement.Random_placement.place ~rng:(Combin.Rng.create 5) p in
  Alcotest.(check bool) "same seed, same layout" true
    (l1.Placement.Layout.replicas = l2.Placement.Layout.replicas);
  let l3 = Placement.Random_placement.place ~rng:(Combin.Rng.create 6) p in
  Alcotest.(check bool) "different seed differs" true
    (l1.Placement.Layout.replicas <> l3.Placement.Layout.replicas)

let test_random_unconstrained_valid () =
  let p = Placement.Params.make ~b:100 ~r:4 ~s:2 ~n:20 ~k:2 in
  let layout =
    Placement.Random_placement.place_unconstrained ~rng:(Combin.Rng.create 3) p
  in
  Alcotest.(check int) "b objects" 100 (Placement.Layout.b layout)

(* ------------------------------------------------------------------ *)
(* Adversary *)

(* An oracle for the node adversary that shares no code with the
   search: every k-subset in lexicographic order, scored from scratch
   with Layout.failed_objects; returns the best value and the first set
   reaching it. *)
let brute_force_attack layout ~s ~k =
  let n = layout.Placement.Layout.n in
  let best = ref (-1) and best_set = ref [||] in
  Combin.Subset.iter ~n ~k (fun failed ->
      let f = Placement.Layout.failed_objects layout ~s ~failed_nodes:failed in
      if f > !best then begin
        best := f;
        best_set := Array.copy failed
      end);
  (!best, !best_set)

let small_layout_gen =
  QCheck2.Gen.(
    let* n = int_range 6 10 in
    let* r = int_range 2 3 in
    let* b = int_range 3 20 in
    let* seed = int_range 0 10000 in
    let rng = Combin.Rng.create seed in
    let replicas = Array.init b (fun _ -> Combin.Rng.sample_distinct rng ~n ~k:r) in
    return (Placement.Layout.make ~n ~r replicas))

let test_adversary_exact_is_optimal =
  qtest ~count:40 "branch-and-bound equals subset enumeration"
    QCheck2.Gen.(triple small_layout_gen (int_range 1 3) (int_range 1 4))
    (fun (layout, s, k) ->
      let s = min s layout.Placement.Layout.r in
      let k = min k (layout.Placement.Layout.n - 1) in
      if k < 1 then true
      else begin
        let exact = Placement.Adversary.exact layout ~s ~k in
        exact.Placement.Adversary.exact
        && exact.Placement.Adversary.failed_objects
           = fst (brute_force_attack layout ~s ~k)
        && Placement.Adversary.eval layout ~s exact.Placement.Adversary.failed_nodes
           = exact.Placement.Adversary.failed_objects
      end)

let test_adversary_ordering =
  qtest ~count:30 "greedy <= Instance.attack = exact" small_layout_gen
    (fun layout ->
      let s = 2 and k = 3 in
      let n = layout.Placement.Layout.n and r = layout.Placement.Layout.r in
      if n <= k || r < s then true
      else begin
        let inst =
          Placement.Instance.make ~b:(Placement.Layout.b layout) ~r ~s ~n ~k ()
        in
        let g = Placement.Adversary.greedy layout ~s ~k in
        let a = Placement.Instance.attack inst layout in
        let e = Placement.Adversary.exact layout ~s ~k in
        g.Placement.Adversary.failed_objects <= a.Placement.Adversary.failed_objects
        && a = e
      end)

let test_adversary_attack_shape =
  qtest ~count:30 "attack has k sorted distinct nodes"
    small_layout_gen
    (fun layout ->
      let k = 3 in
      if layout.Placement.Layout.n <= k then true
      else begin
        let a = Placement.Adversary.greedy layout ~s:1 ~k in
        Array.length a.Placement.Adversary.failed_nodes = k
        && Combin.Intset.is_sorted_distinct a.Placement.Adversary.failed_nodes
      end)

(* PR 10 (DESIGN.md §15): the pre-frontier exact search split its node
   budget evenly across first-choice branches, so the heaviest subtree
   starved while its siblings left most of the global allowance unused.
   This frozen copy of that static-split search is the reference the
   starvation test derives its budget from: each branch owns
   [budget / (n - k + 1)] nodes and prunes against its own local best
   (seeded from greedy, never re-reading a shared incumbent), exactly
   as the old implementation did. *)
let static_split_exact layout ~s ~k ~budget =
  let n = layout.Placement.Layout.n in
  let kn0 = Placement.Kernel.make layout ~s in
  let degrees = Array.init n (Placement.Kernel.degree kn0) in
  let top_deg = Placement.Bb.top_degrees ~degrees ~n ~k in
  let seed =
    (Placement.Adversary.greedy layout ~s ~k).Placement.Adversary.failed_objects
  in
  let branches = n - k + 1 in
  let branch_budget = max 1 (budget / branches) in
  let best = ref seed and truncated = ref false and max_branch = ref 0 in
  for nd0 = 0 to branches - 1 do
    let st = Placement.Kernel.copy kn0 in
    let branch_best = ref seed in
    let visited = ref 0 and btr = ref false in
    let rec go start depth =
      incr visited;
      if !visited > branch_budget then btr := true
      else if depth = k then begin
        if Placement.Kernel.killed st > !branch_best then
          branch_best := Placement.Kernel.killed st
      end
      else if
        Placement.Kernel.killed st + top_deg.(start).(k - depth) > !branch_best
      then
        for nd = start to n - (k - depth) do
          if not !btr then begin
            Placement.Kernel.add st nd;
            go (nd + 1) (depth + 1);
            Placement.Kernel.remove st nd
          end
        done
    in
    Placement.Kernel.add st nd0;
    go (nd0 + 1) 1;
    if !btr then truncated := true;
    if !visited > !max_branch then max_branch := !visited;
    if !branch_best > !best then best := !branch_best
  done;
  (!best, !truncated, !max_branch)

let test_exact_budget_starvation () =
  let n = 24 and s = 2 and k = 4 in
  let p = Placement.Params.make ~b:200 ~r:3 ~s ~n ~k in
  let layout = Placement.Random_placement.place ~rng:(Combin.Rng.create 42) p in
  (* Unstarved reference run, to size the squeeze. *)
  let _, tr0, max_branch = static_split_exact layout ~s ~k ~budget:max_int in
  Alcotest.(check bool) "reference run completes" false tr0;
  (* A total allowance the static split cannot survive — its heaviest
     branch is granted one node too few — but that covers the whole
     tree when pooled, because branch sizes are heavily skewed. *)
  let budget = (max_branch - 1) * (n - k + 1) in
  let _, tr_old, _ = static_split_exact layout ~s ~k ~budget in
  Alcotest.(check bool) "static split starves" true tr_old;
  let oracle = Placement.Adversary.exact layout ~s ~k in
  let budgeted = Placement.Adversary.exact ~budget layout ~s ~k in
  Alcotest.(check bool) "one shared budget completes" true
    budgeted.Placement.Adversary.exact;
  Alcotest.(check int) "matches the unbudgeted search"
    oracle.Placement.Adversary.failed_objects
    budgeted.Placement.Adversary.failed_objects;
  Alcotest.(check (array int)) "same winning set"
    oracle.Placement.Adversary.failed_nodes
    budgeted.Placement.Adversary.failed_nodes

let test_adversary_exact_vs_enumeration =
  qtest ~count:60 "exact = lexicographic enumeration, n<=16"
    QCheck2.Gen.(
      let* n = int_range 6 16 in
      let* r = int_range 2 4 in
      let* s = int_range 1 r in
      let* k = int_range 1 (min 5 (n - 1)) in
      let* b = int_range 1 40 in
      let* seed = int_range 0 10000 in
      let rng = Combin.Rng.create seed in
      let replicas =
        Array.init b (fun _ -> Combin.Rng.sample_distinct rng ~n ~k:r)
      in
      return (Placement.Layout.make ~n ~r replicas, s, k))
    (fun (layout, s, k) ->
      let value, set = brute_force_attack layout ~s ~k in
      let g = Placement.Adversary.greedy layout ~s ~k in
      let matches (e : Placement.Adversary.attack) =
        e.Placement.Adversary.exact
        && e.Placement.Adversary.failed_objects = value
        && (value = g.Placement.Adversary.failed_objects
           || e.Placement.Adversary.failed_nodes = set)
      in
      matches (Placement.Adversary.exact layout ~s ~k)
      && Engine.Pool.with_pool ~domains:4 (fun pool ->
             matches (Placement.Adversary.exact ~pool layout ~s ~k)))

(* Kernels for the counting-bound properties, each with its unit →
   replica-entry bags for a naive recount: node kernels, domain kernels
   over a random layout (some nodes in no domain), and multiplicity
   groups that repeat an object 2–3 times inside one unit. *)
let bound_kernel_gen =
  QCheck2.Gen.(
    let* s = int_range 1 3 in
    let* seed = int_range 0 10000 in
    let rng = Combin.Rng.create seed in
    let* kind = int_range 0 2 in
    match kind with
    | 0 | 1 ->
        let* n = int_range 4 11 in
        let* r = int_range 2 (min 4 n) in
        let* b = int_range 1 30 in
        let replicas =
          Array.init b (fun _ -> Combin.Rng.sample_distinct rng ~n ~k:r)
        in
        let layout = Placement.Layout.make ~n ~r replicas in
        let node_objs = node_rows layout in
        if kind = 0 then
          return (Placement.Kernel.make layout ~s, node_objs, seed)
        else
          let* units = int_range 2 (min 6 n) in
          let rack = Array.init n (fun _ -> Combin.Rng.int rng (units + 1)) in
          let members =
            Array.init units (fun d ->
                Array.of_list
                  (List.filter (fun nd -> rack.(nd) = d) (List.init n Fun.id)))
          in
          let groups =
            Array.map
              (fun ms ->
                Array.concat
                  (List.map (fun nd -> node_objs.(nd)) (Array.to_list ms)))
              members
          in
          return (Placement.Kernel.make ~domains:members layout ~s, groups, seed)
    | _ ->
        let* units = int_range 2 9 in
        let* b = int_range 1 20 in
        let groups =
          Array.init units (fun _ ->
              let k = Combin.Rng.int rng (min b 6) + 1 in
              let objs = Combin.Rng.sample_distinct rng ~n:b ~k in
              Array.concat
                (List.map
                   (fun obj -> Array.make (1 + Combin.Rng.int rng 3) obj)
                   (Array.to_list objs)))
        in
        return (Placement.Kernel.of_groups ~s ~b groups, groups, seed))

let bag_killed groups ~s set =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun u ->
      Array.iter
        (fun obj ->
          Hashtbl.replace counts obj
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts obj)))
        groups.(u))
    set;
  Hashtbl.fold (fun _ h acc -> if h >= s then acc + 1 else acc) counts 0

(* Lemma 2's counting bound must dominate the brute-force best of every
   m-subset of units >= start, after a random ascending prefix reached
   through extra adds and removes (so both patch directions run). *)
let test_counting_bound_admissible =
  qtest ~count:300 "counting bound >= brute force beyond any prefix"
    bound_kernel_gen
    (fun (kn, groups, seed) ->
      let rng = Combin.Rng.create seed in
      let n = Placement.Kernel.units kn and s = Placement.Kernel.threshold kn in
      let fs = Placement.Kernel.Finishers.make kn in
      let pair = Placement.Kernel.Finishers.pairs fs in
      let depth = Combin.Rng.int rng (min 3 n) in
      let prefix = Array.to_list (Combin.Rng.sample_distinct rng ~n ~k:depth) in
      let extra =
        List.filter
          (fun u -> not (List.mem u prefix))
          (Array.to_list
             (Combin.Rng.sample_distinct rng ~n ~k:(Combin.Rng.int rng n)))
      in
      List.iter (Placement.Kernel.Finishers.add fs) (extra @ List.rev prefix);
      List.iter (Placement.Kernel.Finishers.remove fs) (List.rev extra);
      let start = List.fold_left (fun acc u -> max acc (u + 1)) 0 prefix in
      let killed = Placement.Kernel.killed kn in
      let ok = ref (killed = bag_killed groups ~s prefix) in
      for m = 1 to min 3 (n - start) do
        let bound = killed + Placement.Bb.counting_bound fs ~pair ~start ~m in
        Combin.Subset.iter ~n:(n - start) ~k:m (fun sub ->
            let set =
              prefix @ List.map (fun i -> start + i) (Array.to_list sub)
            in
            if bag_killed groups ~s set > bound then ok := false)
      done;
      !ok)

(* Without a pool the search is the strict-pruning lexicographic DFS,
   node for node: this test-local DFS prunes with the same two bounds
   against one best-so-far, seeded with the greedy value, and counts
   every node it visits, the root and the leaves included.  A search
   that let ties through (against an earlier first pick's value, or by
   a reversed tie key) expands more. *)
let strict_dfs kn ~k ~seed =
  let n = Placement.Kernel.units kn in
  let degrees = Array.init n (Placement.Kernel.degree kn) in
  let top_deg = Placement.Bb.top_degrees ~degrees ~n ~k in
  let fs = Placement.Kernel.Finishers.make (Placement.Kernel.copy kn) in
  let pair =
    if k >= 2 && Placement.Kernel.threshold kn >= 2 then
      Placement.Kernel.Finishers.pairs fs
    else Array.make (n + 1) 0
  in
  let best = ref seed and nodes = ref 0 in
  let rec go start depth =
    incr nodes;
    let killed = Placement.Kernel.killed (Placement.Kernel.Finishers.kernel fs) in
    let m = k - depth in
    if m = 0 then best := max !best killed
    else if
      killed
      + min top_deg.(start).(m) (Placement.Bb.counting_bound fs ~pair ~start ~m)
      > !best
    then
      for nd = start to n - m do
        Placement.Kernel.Finishers.add fs nd;
        go (nd + 1) (depth + 1);
        Placement.Kernel.Finishers.remove fs nd
      done
  in
  go 0 0;
  (!best, !nodes)

let test_search_is_strict_dfs =
  qtest ~count:150 "search without a pool = strict DFS, node for node"
    QCheck2.Gen.(
      let* n = int_range 8 18 in
      let* b = int_range 10 60 in
      let* s = int_range 1 3 in
      let* k = int_range 1 5 in
      let* racks = int_range 0 (n / 2) in
      let* seed = int_range 0 10000 in
      return (n, b, s, k, racks, seed))
    (fun (n, b, s, k, racks, seed) ->
      let rng = Combin.Rng.create seed in
      let replicas =
        Array.init b (fun _ -> Combin.Rng.sample_distinct rng ~n ~k:3)
      in
      let layout = Placement.Layout.make ~n ~r:3 replicas in
      (* racks = 0: the node kernel; otherwise a domain kernel over
         [racks] racks that partition the nodes. *)
      let kn =
        if racks = 0 then Placement.Kernel.make layout ~s
        else
          Topology.Adversary.kernel_of layout
            (Topology.Build.partition ~n ~domains:racks ())
            ~level:1 ~s
      in
      let k = min k (Placement.Kernel.units kn) in
      let seed =
        let g = Placement.Kernel.copy kn in
        ignore (Placement.Kernel.select_greedy g ~picks:k);
        Placement.Kernel.killed g
      in
      let r = Placement.Bb.search ~budget:max_int ~kernel:kn ~k ~seed () in
      let best, nodes = strict_dfs kn ~k ~seed in
      (not r.Placement.Bb.truncated)
      && r.Placement.Bb.value = best
      && r.Placement.Bb.stats.Placement.Bb.nodes = nodes)

(* The finisher counts stay exact under random add/remove churn: each
   unit's count equals a naive recount of the objects below s hits of
   which it holds at least s − h replicas. *)
let test_finishers_exact =
  qtest ~count:150 "Finishers counts = naive recount under churn"
    bound_kernel_gen
    (fun (kn, groups, seed) ->
      let rng = Combin.Rng.create seed in
      let n = Placement.Kernel.units kn and s = Placement.Kernel.threshold kn in
      let fs = Placement.Kernel.Finishers.make kn in
      let failed = Array.make n false in
      let ok = ref true in
      for _ = 1 to 30 do
        let u = Combin.Rng.int rng n in
        if failed.(u) then Placement.Kernel.Finishers.remove fs u
        else Placement.Kernel.Finishers.add fs u;
        failed.(u) <- not failed.(u);
        let hits = Hashtbl.create 16 in
        Array.iteri
          (fun v bag ->
            if failed.(v) then
              Array.iter
                (fun obj ->
                  Hashtbl.replace hits obj
                    (1 + Option.value ~default:0 (Hashtbl.find_opt hits obj)))
                bag)
          groups;
        let h obj = Option.value ~default:0 (Hashtbl.find_opt hits obj) in
        Array.iteri
          (fun v bag ->
            let mine = List.sort_uniq compare (Array.to_list bag) in
            let fin =
              List.length
                (List.filter
                   (fun obj ->
                     let m =
                       Array.fold_left
                         (fun acc o -> if o = obj then acc + 1 else acc)
                         0 bag
                     in
                     h obj < s && h obj + m >= s)
                   mine)
            in
            if Placement.Kernel.Finishers.fin fs v <> fin then ok := false)
          groups
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Kernel *)

let test_layout_incidence_memoized =
  qtest ~count:30 "incidence is memoized (physically equal)" layout_gen
    (fun layout ->
      Placement.Layout.incidence layout == Placement.Layout.incidence layout)

(* Naive mirror of the kernel: a plain per-object counter array updated
   from the inverted index, with killed recounted from scratch. *)
let naive_killed layout ~s failed =
  Placement.Layout.failed_objects layout ~s
    ~failed_nodes:(Combin.Intset.of_array (Array.of_list failed))

let test_kernel_incremental_vs_naive =
  qtest ~count:60 "incremental killed = naive failed_objects under churn"
    QCheck2.Gen.(triple layout_gen (int_range 1 4) (int_range 0 10000))
    (fun (layout, s, seed) ->
      let s = min s layout.Placement.Layout.r in
      let n = layout.Placement.Layout.n in
      let rng = Combin.Rng.create seed in
      let kn = Placement.Kernel.make layout ~s in
      let failed = ref [] in
      let ok = ref true in
      (* Interleaved add/remove: bias toward adds so the set grows, with
         enough removes to exercise the undo path. *)
      for _ = 1 to 60 do
        let nd = Combin.Rng.int rng n in
        if List.mem nd !failed then begin
          Placement.Kernel.remove kn nd;
          failed := List.filter (fun x -> x <> nd) !failed
        end
        else if Combin.Rng.int rng 4 < 3 then begin
          Placement.Kernel.add kn nd;
          failed := nd :: !failed
        end;
        if Placement.Kernel.killed kn <> naive_killed layout ~s !failed then
          ok := false
      done;
      (* One-shot check agrees with the incremental state, and hits
         match a per-object recount. *)
      let set = Combin.Intset.of_array (Array.of_list !failed) in
      !ok
      && Placement.Kernel.check kn set = Placement.Kernel.killed kn
      && Placement.Kernel.failed_units kn = set
      && Array.for_all
           (fun obj ->
             let rep = layout.Placement.Layout.replicas.(obj) in
             let h =
               Array.fold_left
                 (fun c nd -> if Combin.Intset.mem set nd then c + 1 else c)
                 0 rep
             in
             Placement.Kernel.hits kn obj = h)
           (Array.init (Placement.Layout.b layout) Fun.id))

(* Reference greedy: full rescan per pick over a hand-maintained hit
   counter array — the pre-kernel algorithm, (newly, progress) lex with
   lowest-id ties.  select_greedy must be byte-identical. *)
let scan_greedy layout ~s ~k =
  let n = layout.Placement.Layout.n in
  let node_objs = node_rows layout in
  let hits = Array.make (Placement.Layout.b layout) 0 in
  let chosen = Array.make n false in
  Array.init k (fun _ ->
      let best = ref (-1) and best_ne = ref (-1) and best_pr = ref (-1) in
      for nd = 0 to n - 1 do
        if not chosen.(nd) then begin
          let ne = ref 0 and pr = ref 0 in
          Array.iter
            (fun obj ->
              if hits.(obj) + 1 = s then incr ne;
              if hits.(obj) < s then incr pr)
            node_objs.(nd);
          (* Strict lex improvement only: ascending scan keeps the
             lowest id on ties. *)
          if !ne > !best_ne || (!ne = !best_ne && !pr > !best_pr) then begin
            best := nd;
            best_ne := !ne;
            best_pr := !pr
          end
        end
      done;
      chosen.(!best) <- true;
      Array.iter (fun obj -> hits.(obj) <- hits.(obj) + 1) node_objs.(!best);
      !best)

let test_kernel_greedy_identical =
  qtest ~count:60 "select_greedy = full-rescan greedy, pick by pick"
    QCheck2.Gen.(triple layout_gen (int_range 1 4) (int_range 1 6))
    (fun (layout, s, k) ->
      let s = min s layout.Placement.Layout.r in
      let k = min k (layout.Placement.Layout.n - 1) in
      let kn = Placement.Kernel.make layout ~s in
      let picks, _ = Placement.Kernel.select_greedy kn ~picks:k in
      picks = scan_greedy layout ~s ~k)

(* Group kernel with multiplicity: partition the nodes into fewer
   domains than r, so a domain holds several replicas of each object and
   its (newly, progress) counts range up to its degree ≈ r·b/domains — in
   particular past b.  Regression for the packed-objective base: with
   base b+1, packed(1, 0) = packed(0, b+1), and the greedy could prefer
   a domain with large progress over one that actually kills an
   object.  The reference is the pre-kernel full rescan over domains. *)
let scan_greedy_groups ~s ~b groups ~picks =
  let nu = Array.length groups in
  let hits = Array.make b 0 in
  let chosen = Array.make nu false in
  Array.init picks (fun _ ->
      let best = ref (-1) and best_ne = ref (-1) and best_pr = ref (-1) in
      for u = 0 to nu - 1 do
        if not chosen.(u) then begin
          let ne = ref 0 and pr = ref 0 in
          Array.iter
            (fun obj ->
              if hits.(obj) + 1 = s then incr ne;
              if hits.(obj) < s then incr pr)
            groups.(u);
          if !ne > !best_ne || (!ne = !best_ne && !pr > !best_pr) then begin
            best := u;
            best_ne := !ne;
            best_pr := !pr
          end
        end
      done;
      chosen.(!best) <- true;
      Array.iter (fun obj -> hits.(obj) <- hits.(obj) + 1) groups.(!best);
      !best)

let test_kernel_group_greedy_identical =
  qtest ~count:80 "group lazy-greedy = rescan when domains < r"
    QCheck2.Gen.(
      let* layout = layout_gen in
      let* domains = int_range 2 (max 2 (layout.Placement.Layout.r - 1)) in
      let* s = int_range 1 layout.Placement.Layout.r in
      let* seed = int_range 0 10000 in
      return (layout, domains, s, seed))
    (fun (layout, domains, s, seed) ->
      let n = layout.Placement.Layout.n in
      let domains = min domains (n - 1) in
      let node_objs = node_rows layout in
      let rng = Combin.Rng.create seed in
      (* Skewed partition: a node permutation split at random cut points,
         so domain degrees (and hence progress values) vary widely and
         routinely exceed b; coinciding cuts yield empty domains. *)
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Combin.Rng.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let cuts =
        Array.init (domains - 1) (fun _ -> 1 + Combin.Rng.int rng (n - 1))
      in
      Array.sort compare cuts;
      let bounds = Array.concat [ [| 0 |]; cuts; [| n |] ] in
      let groups =
        Array.init domains (fun d ->
            Array.concat
              (List.init
                 (bounds.(d + 1) - bounds.(d))
                 (fun i -> node_objs.(perm.(bounds.(d) + i)))))
      in
      let b = Placement.Layout.b layout in
      let picks = 1 + Combin.Rng.int rng (domains - 1) in
      let kn = Placement.Kernel.of_groups ~s ~b groups in
      let kernel_picks, _ = Placement.Kernel.select_greedy kn ~picks in
      kernel_picks = scan_greedy_groups ~s ~b groups ~picks
      && Placement.Kernel.killed kn
         = Placement.Kernel.check (Placement.Kernel.of_groups ~s ~b groups)
             (Combin.Intset.of_array kernel_picks))

(* Full-rescan greedy through the flat kernel's own [marginal]: every
   pick re-scores every unit outside the kernel's failure set,
   (newly, progress) lex with lowest-id ties, and fails the winner in
   [kn] — so afterwards [Kernel.killed kn] is the damage.  The naive
   reference for select_greedy and Dyn.worst_case, independent of their
   score updates. *)
let rescan_greedy kn ~picks =
  let n = Placement.Kernel.units kn in
  let chosen = Array.make n false in
  Array.iter (fun u -> chosen.(u) <- true) (Placement.Kernel.failed_units kn);
  Array.init picks (fun _ ->
      let best = ref (-1) and best_pair = ref (-1, -1) in
      for u = 0 to n - 1 do
        if not chosen.(u) then begin
          let pair = Placement.Kernel.marginal kn u in
          if compare pair !best_pair > 0 then begin
            best := u;
            best_pair := pair
          end
        end
      done;
      chosen.(!best) <- true;
      Placement.Kernel.add kn !best;
      !best)

(* The B&B probes run select_greedy mid-search: after a random prefix
   of adds, the greedy must match a full rescan from that same state —
   on the node kernel and on a domain kernel ([make ~domains]) with
   fewer domains than r, so a domain holds several replicas of an
   object and its score counts each. *)
let test_kernel_greedy_from_prefix =
  qtest ~count:80 "select_greedy from a failure prefix = rescan"
    QCheck2.Gen.(triple layout_gen (int_range 1 4) (int_range 0 10000))
    (fun (layout, s, seed) ->
      let n = layout.Placement.Layout.n and r = layout.Placement.Layout.r in
      let s = min s r in
      let rng = Combin.Rng.create seed in
      let ndomains = 1 + Combin.Rng.int rng (r - 1) in
      let domain = Array.init n (fun _ -> Combin.Rng.int rng ndomains) in
      let members =
        Array.init ndomains (fun d ->
            Array.of_list
              (List.filter (fun nd -> domain.(nd) = d) (List.init n Fun.id)))
      in
      let agrees kn =
        let units = Placement.Kernel.units kn in
        let prefix = Combin.Rng.int rng units in
        Array.iter (Placement.Kernel.add kn)
          (Combin.Rng.sample_distinct rng ~n:units ~k:prefix);
        let picks = 1 + Combin.Rng.int rng (units - prefix) in
        let greedy = Placement.Kernel.copy kn
        and rescan = Placement.Kernel.copy kn in
        let greedy_picks, _ = Placement.Kernel.select_greedy greedy ~picks in
        greedy_picks = rescan_greedy rescan ~picks
        && Placement.Kernel.killed greedy = Placement.Kernel.killed rescan
        && Placement.Kernel.failed_units greedy
           = Placement.Kernel.failed_units rescan
      in
      agrees (Placement.Kernel.make layout ~s)
      && agrees (Placement.Kernel.make ~domains:members layout ~s))

(* Arbitrary multiplicity groups, no layout behind them: [domains]
   units each holding a bag of object ids in [0, b), duplicates
   allowed. *)
let groups_gen =
  QCheck2.Gen.(
    let* b = int_range 1 40 in
    let* domains = int_range 1 8 in
    let* groups =
      array_size (return domains)
        (array_size (int_range 0 12) (int_range 0 (b - 1)))
    in
    let* s = int_range 1 4 in
    let* seed = int_range 0 10000 in
    return (b, s, groups, seed))

let test_kernel_group_churn =
  qtest ~count:80 "of_groups counters = naive bag recount under churn"
    groups_gen
    (fun (b, s, groups, seed) ->
      let nu = Array.length groups in
      let rng = Combin.Rng.create seed in
      let kn = Placement.Kernel.of_groups ~s ~b groups in
      let hits = Array.make b 0 in
      let failed = ref [] in
      let ok = ref true in
      for _ = 1 to 40 do
        let u = Combin.Rng.int rng nu in
        if List.mem u !failed then begin
          Placement.Kernel.remove kn u;
          Array.iter (fun obj -> hits.(obj) <- hits.(obj) - 1) groups.(u);
          failed := List.filter (fun x -> x <> u) !failed
        end
        else if Combin.Rng.int rng 4 < 3 then begin
          Placement.Kernel.add kn u;
          Array.iter (fun obj -> hits.(obj) <- hits.(obj) + 1) groups.(u);
          failed := u :: !failed
        end;
        let killed = ref 0 in
        Array.iter (fun h -> if h >= s then incr killed) hits;
        if Placement.Kernel.killed kn <> !killed then ok := false
      done;
      !ok)

(* The misordering pinned exactly: b = 3, s = 2.  Unit 0 wins pick 1 on
   progress (degree 8) and leaves object 1 one hit short of s.  At pick
   2 the lex objective prefers unit 1 ((newly 1, progress 1): object 1
   dies) over unit 2 ((0, 6): six copies of object 0, all below s) —
   but packing with base b+1 = 4 scores them 5 vs 6 and flips the
   pick, which is why the base must exceed the largest unit degree. *)
let test_kernel_group_packed_base () =
  let groups =
    [| [| 2; 2; 2; 2; 2; 2; 2; 1 |]; [| 1 |]; [| 0; 0; 0; 0; 0; 0 |] |]
  in
  let kn = Placement.Kernel.of_groups ~s:2 ~b:3 groups in
  let picks, _ = Placement.Kernel.select_greedy kn ~picks:2 in
  Alcotest.(check (array int)) "lex picks" [| 0; 1 |] picks;
  Alcotest.(check int) "killed" 2 (Placement.Kernel.killed kn)

let test_kernel_double_add () =
  let layout =
    Placement.Layout.make ~n:4 ~r:2 [| [| 0; 1 |]; [| 2; 3 |]; [| 0; 2 |] |]
  in
  let kn = Placement.Kernel.make layout ~s:2 in
  Placement.Kernel.add kn 0;
  Alcotest.check_raises "double add"
    (Invalid_argument "Kernel.add: unit already failed") (fun () ->
      Placement.Kernel.add kn 0);
  Alcotest.check_raises "remove absent"
    (Invalid_argument "Kernel.remove: unit not failed") (fun () ->
      Placement.Kernel.remove kn 1);
  Placement.Kernel.add kn 2;
  (* failed = {0,2}: obj 2 on {0,2} dead *)
  Alcotest.(check int) "one dead" 1 (Placement.Kernel.killed kn);
  Placement.Kernel.add kn 1;
  (* failed = {0,1,2}: obj 0 on {0,1} dead, obj 2 on {0,2} dead *)
  Alcotest.(check int) "two dead" 2 (Placement.Kernel.killed kn);
  let copy = Placement.Kernel.copy kn in
  Alcotest.(check int) "copy duplicates state" 2 (Placement.Kernel.killed copy);
  Placement.Kernel.remove copy 1;
  Alcotest.(check int) "copy is independent" 2 (Placement.Kernel.killed kn);
  Alcotest.(check int) "copied counters undo" 1 (Placement.Kernel.killed copy);
  Placement.Kernel.reset kn;
  Alcotest.(check int) "reset" 0 (Placement.Kernel.killed kn);
  Alcotest.(check (array int)) "no failed units" [||]
    (Placement.Kernel.failed_units kn)

(* ------------------------------------------------------------------ *)
(* Dynamic kernel (Kernel.Dyn): object churn *)

(* Dyn.worst_case against both references on a frozen, reset copy of
   the live objects: select_greedy and the full rescan must agree with
   it on picks and damage. *)
let dyn_worst_case_agrees dyn ~k =
  let picks, dead, _ = Placement.Kernel.Dyn.worst_case dyn ~k in
  let frozen = Placement.Kernel.Dyn.freeze dyn in
  Placement.Kernel.reset frozen;
  let greedy, _ = Placement.Kernel.select_greedy frozen ~picks:k in
  let greedy_dead = Placement.Kernel.killed frozen in
  Placement.Kernel.reset frozen;
  let rescan = rescan_greedy frozen ~picks:k in
  picks = greedy && picks = rescan && dead = greedy_dead
  && dead = Placement.Kernel.killed frozen

(* Random interleaving of object creates/deletes and unit
   fails/recovers over 12 units, of which only the first 10 ever host a
   replica (so zero-load units are always present); after every
   operation the incremental state must agree with the from-scratch
   recount, and the incremental adversary at k = 0, a drawn k and
   k = units must match both greedy references on a freshly frozen flat
   kernel over the same live objects, for s from 1 to 3. *)
let test_kernel_dyn_oracle =
  qtest ~count:30 "Dyn ≡ from-scratch under random churn"
    QCheck2.Gen.(
      quad (int_range 0 10000) (int_range 10 150) (int_range 1 3)
        (int_range 0 12))
    (fun (seed, ops, s, k) ->
      let n = 12 and hosts = 10 and r = 3 in
      let rng = Combin.Rng.create seed in
      let dyn = Placement.Kernel.Dyn.create ~units:n ~s in
      for _ = 1 to ops do
        let b = Placement.Kernel.Dyn.objects dyn in
        let nfailed =
          Array.length (Placement.Kernel.Dyn.failed_units dyn)
        in
        let d = Combin.Rng.int rng 100 in
        if d < 50 || b = 0 then
          ignore
            (Placement.Kernel.Dyn.add_object dyn
               (Combin.Rng.sample_distinct rng ~n:hosts ~k:r))
        else if d < 70 then
          ignore
            (Placement.Kernel.Dyn.remove_object dyn (Combin.Rng.int rng b))
        else if d < 85 && nfailed < n then begin
          let u = ref (Combin.Rng.int rng n) in
          let failed = Placement.Kernel.Dyn.failed_units dyn in
          while Array.exists (fun f -> f = !u) failed do
            u := Combin.Rng.int rng n
          done;
          Placement.Kernel.Dyn.fail_unit dyn !u
        end
        else if nfailed > 0 then begin
          let failed = Placement.Kernel.Dyn.failed_units dyn in
          Placement.Kernel.Dyn.recover_unit dyn
            failed.(Combin.Rng.int rng nfailed)
        end;
        (* Oracle 1: recount straight from the replica lists. *)
        let recount = Placement.Kernel.Dyn.check_scratch dyn in
        assert (recount = Placement.Kernel.Dyn.killed dyn);
        (* Oracle 2: the frozen flat kernel agrees on the dead tally. *)
        let frozen = Placement.Kernel.Dyn.freeze dyn in
        assert (Placement.Kernel.killed frozen = recount);
        (* Oracle 3: incremental adversary ≡ select_greedy ≡ rescan. *)
        List.iter
          (fun k -> assert (dyn_worst_case_agrees dyn ~k))
          [ 0; k; n ]
      done;
      true)

(* The same agreement at 1100 units, after deletes have left Dyn's
   degree high-water mark above the live maximum, and with units failed
   (the attack starts from all-up regardless). *)
let test_kernel_dyn_1100_units () =
  let units = 1100 and s = 2 and k = 8 in
  let rng = Combin.Rng.create 42 in
  let dyn = Placement.Kernel.Dyn.create ~units ~s in
  for _ = 1 to 500 do
    ignore
      (Placement.Kernel.Dyn.add_object dyn
         (Combin.Rng.sample_distinct rng ~n:units ~k:3))
  done;
  (* Hot units: enough shared replicas that greedy has real work. *)
  for i = 0 to 99 do
    ignore (Placement.Kernel.Dyn.add_object dyn [| i mod 7; 7 + (i mod 5); 600 + i |])
  done;
  for _ = 1 to 150 do
    ignore
      (Placement.Kernel.Dyn.remove_object dyn
         (Combin.Rng.int rng (Placement.Kernel.Dyn.objects dyn)))
  done;
  List.iter (Placement.Kernel.Dyn.fail_unit dyn) [ 3; 700; 1099 ];
  Alcotest.(check bool) "agrees with select_greedy and rescan" true
    (dyn_worst_case_agrees dyn ~k);
  let _, dead, updates = Placement.Kernel.Dyn.worst_case dyn ~k in
  Alcotest.(check bool) "kills something" true (dead > 0);
  Alcotest.(check bool) "updates scores" true (updates > 0)

(* worst_case keeps its scratch plane, scores and chosen flags inside
   the Dyn state and restores them after every query: back-to-back
   queries agree, the live failure state is untouched, and both still
   hold after an add that grows the slot capacity and a remove that
   moves the last slot into the freed one. *)
let test_kernel_dyn_worst_case_reset () =
  let units = 30 and s = 2 and k = 5 in
  let rng = Combin.Rng.create 11 in
  let dyn = Placement.Kernel.Dyn.create ~units ~s in
  let add () =
    ignore
      (Placement.Kernel.Dyn.add_object dyn
         (Combin.Rng.sample_distinct rng ~n:units ~k:3))
  in
  for _ = 1 to 20 do add () done;
  List.iter (Placement.Kernel.Dyn.fail_unit dyn) [ 2; 9; 17 ];
  let snapshot () =
    let b = Placement.Kernel.Dyn.objects dyn in
    ( Placement.Kernel.Dyn.killed dyn,
      Array.init b (Placement.Kernel.Dyn.hits dyn),
      Placement.Kernel.Dyn.failed_units dyn )
  in
  let check_stable label =
    let before = snapshot () in
    let first = Placement.Kernel.Dyn.worst_case dyn ~k in
    let second = Placement.Kernel.Dyn.worst_case dyn ~k in
    Alcotest.(check bool) (label ^ ": back-to-back agree") true (first = second);
    Alcotest.(check bool) (label ^ ": live state untouched") true
      (snapshot () = before);
    Alcotest.(check bool) (label ^ ": matches references") true
      (dyn_worst_case_agrees dyn ~k)
  in
  check_stable "initial";
  (* 20 -> 40 objects crosses the 32-slot capacity. *)
  for _ = 1 to 20 do add () done;
  check_stable "after growth";
  let moved = Placement.Kernel.Dyn.remove_object dyn 0 in
  Alcotest.(check bool) "last slot moved" true (moved <> 0);
  check_stable "after remove"

let test_kernel_dyn_guards () =
  let dyn = Placement.Kernel.Dyn.create ~units:4 ~s:2 in
  Alcotest.check_raises "s < 1"
    (Invalid_argument "Kernel.Dyn.create: threshold s must be >= 1")
    (fun () -> ignore (Placement.Kernel.Dyn.create ~units:4 ~s:0));
  Alcotest.check_raises "duplicate unit"
    (Invalid_argument "Kernel.Dyn.add_object: duplicate unit") (fun () ->
      ignore (Placement.Kernel.Dyn.add_object dyn [| 1; 1 |]));
  Alcotest.check_raises "unit out of range"
    (Invalid_argument "Kernel.Dyn.add_object: unit out of range") (fun () ->
      ignore (Placement.Kernel.Dyn.add_object dyn [| 0; 4 |]));
  let slot = Placement.Kernel.Dyn.add_object dyn [| 0; 1 |] in
  Alcotest.(check int) "dense slot" 0 slot;
  Placement.Kernel.Dyn.fail_unit dyn 0;
  Alcotest.check_raises "double fail"
    (Invalid_argument "Kernel.Dyn.fail_unit: unit already failed") (fun () ->
      Placement.Kernel.Dyn.fail_unit dyn 0);
  Alcotest.check_raises "recover up unit"
    (Invalid_argument "Kernel.Dyn.recover_unit: unit not failed") (fun () ->
      Placement.Kernel.Dyn.recover_unit dyn 1);
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Kernel.Dyn.remove_object: object slot out of range")
    (fun () -> ignore (Placement.Kernel.Dyn.remove_object dyn 1))

let test_kernel_dyn_swap_remove () =
  let dyn = Placement.Kernel.Dyn.create ~units:4 ~s:2 in
  let _ = Placement.Kernel.Dyn.add_object dyn [| 0; 1 |] in
  let _ = Placement.Kernel.Dyn.add_object dyn [| 1; 2 |] in
  let _ = Placement.Kernel.Dyn.add_object dyn [| 2; 3 |] in
  Placement.Kernel.Dyn.fail_unit dyn 2;
  Placement.Kernel.Dyn.fail_unit dyn 3;
  (* Object 2 on {2,3} is dead. *)
  Alcotest.(check int) "one dead" 1 (Placement.Kernel.Dyn.killed dyn);
  (* Delete slot 0: the last object (slot 2, the dead one) moves in. *)
  let moved_from = Placement.Kernel.Dyn.remove_object dyn 0 in
  Alcotest.(check int) "last slot moved" 2 moved_from;
  Alcotest.(check int) "still dead after the move" 1
    (Placement.Kernel.Dyn.killed dyn);
  Alcotest.(check (array int)) "moved replicas intact" [| 2; 3 |]
    (Placement.Kernel.Dyn.replicas dyn 0);
  Alcotest.(check int) "recount agrees" 1
    (Placement.Kernel.Dyn.check_scratch dyn);
  (* Born-dead object: both replica units already failed. *)
  let slot = Placement.Kernel.Dyn.add_object dyn [| 2; 3 |] in
  Alcotest.(check int) "two dead" 2 (Placement.Kernel.Dyn.killed dyn);
  ignore (Placement.Kernel.Dyn.remove_object dyn slot);
  Alcotest.(check int) "back to one" 1 (Placement.Kernel.Dyn.killed dyn)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip =
  qtest ~count:60 "to_string |> of_string is the identity" layout_gen
    (fun layout ->
      match Placement.Codec.of_string (Placement.Codec.to_string layout) with
      | Error _ -> false
      | Ok layout' ->
          layout'.Placement.Layout.n = layout.Placement.Layout.n
          && layout'.Placement.Layout.r = layout.Placement.Layout.r
          && layout'.Placement.Layout.replicas = layout.Placement.Layout.replicas)

let test_codec_rejects_malformed () =
  let bad_cases =
    [
      ("empty", "");
      ("bad header", "# something else\nn 5\nr 2\nb 0\n");
      ("missing fields", "# replica-placement layout v1\nn 5\n");
      ( "node out of range",
        "# replica-placement layout v1\nn 5\nr 2\nb 1\nobj 0 0 9\n" );
      ( "duplicate replica",
        "# replica-placement layout v1\nn 5\nr 2\nb 1\nobj 0 3 3\n" );
      ( "wrong object count",
        "# replica-placement layout v1\nn 5\nr 2\nb 2\nobj 0 0 1\n" );
      ( "out-of-order ids",
        "# replica-placement layout v1\nn 5\nr 2\nb 2\nobj 1 0 1\nobj 0 2 3\n" );
      ( "wrong replica count",
        "# replica-placement layout v1\nn 5\nr 2\nb 1\nobj 0 1 2 3\n" );
    ]
  in
  List.iter
    (fun (name, text) ->
      match Placement.Codec.of_string text with
      | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ name)
      | Error _ -> ())
    bad_cases

let test_codec_file_roundtrip () =
  let layout =
    Placement.Layout.make ~n:7 ~r:3 [| [| 0; 2; 5 |]; [| 1; 3; 6 |] |]
  in
  let path = Filename.temp_file "layout" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Placement.Codec.save path layout;
      match Placement.Codec.load path with
      | Error msg -> Alcotest.fail msg
      | Ok layout' ->
          Alcotest.(check bool) "equal" true
            (layout'.Placement.Layout.replicas = layout.Placement.Layout.replicas))

(* ------------------------------------------------------------------ *)
(* Copyset baseline *)

let test_copyset_structure =
  qtest ~count:40 "copysets are P partitions' worth of valid r-sets"
    QCheck2.Gen.(
      let* n = int_range 8 40 in
      let* r = int_range 2 4 in
      let* p = int_range 1 4 in
      let* seed = int_range 0 1000 in
      return (n, min r n, p, seed))
    (fun (n, r, p, seed) ->
      let rng = Combin.Rng.create seed in
      let t = Placement.Copyset.generate ~rng ~n ~r ~scatter_width:(p * (r - 1)) in
      Array.length t.Placement.Copyset.copysets = t.Placement.Copyset.permutations * (n / r)
      && Array.for_all
           (fun cs ->
             Array.length cs = r
             && Combin.Intset.is_sorted_distinct cs
             && cs.(0) >= 0
             && cs.(r - 1) < n)
           t.Placement.Copyset.copysets)

let test_copyset_scatter_width_bound =
  qtest ~count:30 "realized scatter width <= P(r-1)"
    QCheck2.Gen.(pair (int_range 9 30) (int_range 0 1000))
    (fun (n, seed) ->
      let r = 3 in
      let rng = Combin.Rng.create seed in
      let t = Placement.Copyset.generate ~rng ~n ~r ~scatter_width:(2 * (r - 1)) in
      let widths = Placement.Copyset.scatter_widths t in
      Array.for_all
        (fun w -> w <= t.Placement.Copyset.permutations * (r - 1))
        widths)

let test_copyset_place_valid () =
  let rng = Combin.Rng.create 5 in
  let t = Placement.Copyset.generate ~rng ~n:12 ~r:3 ~scatter_width:4 in
  let layout = Placement.Copyset.place ~rng t ~b:40 in
  Alcotest.(check int) "b objects" 40 (Placement.Layout.b layout);
  (* Every replica set must be one of the copysets. *)
  Array.iter
    (fun rep ->
      Alcotest.(check bool) "replica set is a copyset" true
        (Array.exists
           (fun cs -> Combin.Intset.equal cs rep)
           t.Placement.Copyset.copysets))
    layout.Placement.Layout.replicas;
  Alcotest.(check bool) "effective lambda >= ceil(b/#copysets)" true
    (Placement.Copyset.effective_lambda t layout
    >= (40 + Array.length t.Placement.Copyset.copysets - 1)
       / Array.length t.Placement.Copyset.copysets)

let test_copyset_bad_args () =
  let rng = Combin.Rng.create 1 in
  Alcotest.(check bool) "scatter too small rejected" true
    (try
       ignore (Placement.Copyset.generate ~rng ~n:10 ~r:3 ~scatter_width:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Optimal placement search + empirical Theorem 1 *)

let test_optimal_dominates_everything () =
  (* On a tiny instance the exhaustive optimum must dominate Combo's
     bound, the measured Combo availability, and Random. *)
  let n = 7 and r = 3 and s = 2 and k = 2 and b = 6 in
  let opt_avail, opt_layout = Placement.Optimal.best ~n ~r ~s ~k ~b () in
  Alcotest.(check int) "optimal layout has b objects" b
    (Placement.Layout.b opt_layout);
  let p = Placement.Params.make ~b ~r ~s ~n ~k in
  let cfg = Placement.Combo.optimize p in
  Alcotest.(check bool) "combo lb <= optimal" true
    (cfg.Placement.Combo.lb <= opt_avail);
  let combo_layout = Placement.Combo.materialize cfg in
  let combo_attack = Placement.Adversary.exact combo_layout ~s ~k in
  Alcotest.(check bool) "combo avail <= optimal" true
    (Placement.Adversary.avail combo_layout ~s combo_attack <= opt_avail);
  let rng = Combin.Rng.create 77 in
  let random_layout = Placement.Random_placement.place ~rng p in
  let random_attack = Placement.Adversary.exact random_layout ~s ~k in
  Alcotest.(check bool) "random avail <= optimal" true
    (Placement.Adversary.avail random_layout ~s random_attack <= opt_avail)

let test_optimal_matches_adversary () =
  (* The returned layout's availability under the exact adversary equals
     the claimed optimum. *)
  let n = 6 and r = 2 and s = 2 and k = 2 and b = 5 in
  let opt_avail, layout = Placement.Optimal.best ~n ~r ~s ~k ~b () in
  let attack = Placement.Adversary.exact layout ~s ~k in
  Alcotest.(check int) "self-consistent" opt_avail
    (Placement.Adversary.avail layout ~s attack)

let test_theorem1_empirical () =
  (* Theorem 1: Avail(π') < c · Avail(π) + α for π a Simple(x, λ)
     placement and π' ANY placement — check against the true optimum. *)
  let n = 7 and r = 3 and s = 3 and k = 3 and x = 1 in
  List.iter
    (fun b ->
      let opt_avail, _ = Placement.Optimal.best ~n ~r ~s ~k ~b () in
      let sts = Designs.Steiner_triple.make 7 in
      let simple = Placement.Simple.of_design sts ~n ~b in
      let attack =
        Placement.Adversary.exact simple.Placement.Simple.layout ~s ~k
      in
      let simple_avail =
        Placement.Adversary.avail simple.Placement.Simple.layout ~s attack
      in
      match Placement.Analysis.theorem1 ~x ~nx:7 ~r ~s ~k ~mu:1 with
      | None -> Alcotest.fail "theorem 1 precondition"
      | Some { c; alpha } ->
          Alcotest.(check bool)
            (Printf.sprintf "Avail(opt)=%d < c*Avail(simple)=%d + alpha (b=%d)"
               opt_avail simple_avail b)
            true
            (float_of_int opt_avail
            < (c *. float_of_int simple_avail) +. alpha))
    [ 3; 4; 5 ]

let test_ub_any_placement_dominates_optimal =
  qtest ~count:25 "counting upper bound >= exhaustive optimum"
    QCheck2.Gen.(
      let* n = int_range 5 7 in
      let* r = int_range 2 3 in
      let* s = int_range 1 r in
      let* k = int_range (max 1 s) (n - 1) in
      let* b = int_range 2 5 in
      return (n, min r n, s, k, b))
    (fun (n, r, s, k, b) ->
      if k > 3 then true
      else begin
        match Placement.Optimal.best ~n ~r ~s ~k ~b () with
        | exception Placement.Optimal.Too_large -> true
        | opt_avail, _ ->
            opt_avail <= Placement.Analysis.ub_avail_any ~b ~r ~s ~n ~k
      end)

let test_ub_any_placement_sane () =
  (* s = r = k = n/…: nothing binding, bound collapses to b. *)
  Alcotest.(check int) "k < s vacuous" 100
    (Placement.Analysis.ub_avail_any ~b:100 ~r:3 ~s:3 ~n:10 ~k:2);
  (* s=1, heavy failure: strictly binding. *)
  Alcotest.(check bool) "binding for s=1" true
    (Placement.Analysis.ub_avail_any ~b:100 ~r:2 ~s:1 ~n:10 ~k:5 < 100)

let test_optimal_too_large () =
  Alcotest.check_raises "budget guard" Placement.Optimal.Too_large (fun () ->
      ignore (Placement.Optimal.best ~n:31 ~r:3 ~s:2 ~k:3 ~b:100 ()))

(* ------------------------------------------------------------------ *)
(* Random analysis (Theorem 2, Lemma 4) *)

let alpha_brute ~n ~k ~r ~s =
  (* Count r-subsets of [0,n) with >= s elements inside [0,k). *)
  let count = ref 0 in
  Combin.Subset.iter ~n ~k:r (fun c ->
      let inside = Array.fold_left (fun acc x -> if x < k then acc + 1 else acc) 0 c in
      if inside >= s then incr count);
  float_of_int !count

let test_alpha_vs_bruteforce =
  qtest ~count:40 "alpha matches direct enumeration"
    QCheck2.Gen.(
      let* n = int_range 5 12 in
      let* r = int_range 1 4 in
      let* s = int_range 1 r in
      let* k = int_range s (n - 1) in
      return (n, r, s, k))
    (fun (n, r, s, k) ->
      let ours = Placement.Random_analysis.alpha ~n ~k ~r ~s in
      let brute = alpha_brute ~n ~k ~r ~s in
      abs_float (ours -. brute) < 1e-6 *. (1.0 +. brute))

let test_fail_probability_in_unit =
  qtest ~count:40 "p in [0,1]"
    QCheck2.Gen.(
      let* n = int_range 5 40 in
      let* r = int_range 2 5 in
      let* s = int_range 1 r in
      let* k = int_range s (n - 1) in
      let* b = int_range 1 500 in
      return (Placement.Params.make ~b ~r:(min r n) ~s ~n ~k))
    (fun p ->
      let prob = (Placement.Random_analysis.report p).Placement.Random_analysis.p_fail in
      prob >= 0.0 && prob <= 1.0 +. 1e-9)

let test_pr_avail_range_and_monotone () =
  let pr b k s =
    Placement.Random_analysis.pr_avail (Placement.Params.make ~b ~r:5 ~s ~n:71 ~k)
  in
  List.iter
    (fun b ->
      let v = pr b 4 3 in
      Alcotest.(check bool) "in [0,b]" true (v >= 0 && v <= b);
      Alcotest.(check bool) "monotone in k" true (pr b 5 3 <= pr b 4 3);
      Alcotest.(check bool) "monotone in s" true (pr b 4 2 <= pr b 4 3))
    [ 150; 600; 2400 ]

let test_pr_avail_k_equals_n_minus_one () =
  (* Extreme k: with nearly all nodes failed and s=1, almost everything
     should fail. *)
  let p = Placement.Params.make ~b:100 ~r:3 ~s:1 ~n:10 ~k:9 in
  Alcotest.(check int) "everything fails" 0 (Placement.Random_analysis.pr_avail p)

let test_lemma4_upper_bounds_pr_avail () =
  List.iter
    (fun (n, r, b, k) ->
      let rnd =
        Placement.Random_analysis.report (Placement.Params.make ~b ~r ~s:1 ~n ~k)
      in
      match rnd.Placement.Random_analysis.lemma4_upper with
      | None -> Alcotest.fail "Lemma 4 should apply at s=1, 2k<n"
      | Some bound ->
          let pr = float_of_int rnd.Placement.Random_analysis.pr_avail in
          Alcotest.(check bool)
            (Printf.sprintf "Lemma4 >= prAvail at n=%d r=%d b=%d k=%d" n r b k)
            true
            (bound >= pr -. 1e-6))
    [ (71, 3, 2400, 3); (71, 5, 2400, 5); (257, 3, 9600, 8); (31, 3, 600, 4) ]

let test_lemma4_preconditions () =
  let upper p = (Placement.Random_analysis.report p).Placement.Random_analysis.lemma4_upper in
  Alcotest.(check bool) "s<>1 -> None" true
    (upper (Placement.Params.make ~b:100 ~r:3 ~s:2 ~n:10 ~k:3) = None);
  Alcotest.(check bool) "k >= n/2 -> None" true
    (upper (Placement.Params.make ~b:100 ~r:3 ~s:1 ~n:10 ~k:5) = None)

let test_log_vuln_decreasing =
  qtest ~count:20 "Vuln nonincreasing in f"
    QCheck2.Gen.(int_range 1 500)
    (fun b ->
      let p = Placement.Params.make ~b ~r:3 ~s:2 ~n:31 ~k:4 in
      let ok = ref true in
      let prev = ref infinity in
      for f = 0 to min b 50 do
        let v = Placement.Random_analysis.log_vuln p ~f in
        if v > !prev +. 1e-9 then ok := false;
        prev := v
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Instance: derived cells alias the parent's tables *)

let test_with_cell_matches_fresh =
  qtest ~count:40 "with_cell = fresh build"
    QCheck2.Gen.(
      let* n = oneofl [ 15; 31; 71 ] in
      let* r = int_range 3 5 in
      let* s = int_range 2 r in
      let* b1 = int_range 1 1200 in
      let* k1 = int_range s (n / 2) in
      let* b2 = int_range 1 1200 in
      let* k2 = int_range s (n / 2) in
      return (n, r, s, b1, k1, b2, k2))
    (fun (n, r, s, b1, k1, b2, k2) ->
      let base = Placement.Instance.make ~b:b1 ~r ~s ~n ~k:k1 () in
      let cell = Placement.Instance.with_cell base ~b:b2 ~k:k2 in
      let fresh = Placement.Instance.make ~b:b2 ~r ~s ~n ~k:k2 () in
      (* Everything derived from the aliased tables must agree with a
         from-scratch build: binomials (inside and outside the cached
         rows), the level table, and the DP result. *)
      let choose_agrees =
        List.for_all
          (fun (m, j) ->
            Placement.Instance.choose cell m j
            = Placement.Instance.choose fresh m j)
          [ (n, 2); (n - 1, r); (k2, s); (n + 7, 2); (n, r + s) ]
      in
      let level_eq (a : Placement.Combo.level) (b : Placement.Combo.level) =
        a.Placement.Combo.x = b.Placement.Combo.x
        && a.Placement.Combo.nx = b.Placement.Combo.nx
        && a.Placement.Combo.mu = b.Placement.Combo.mu
        && a.Placement.Combo.cap_mu = b.Placement.Combo.cap_mu
      in
      let levels_agree =
        let lc = Placement.Instance.levels cell
        and lf = Placement.Instance.levels fresh in
        Array.length lc = Array.length lf
        && Array.for_all2 level_eq lc lf
      in
      let params_agree =
        Placement.Instance.params cell = Placement.Instance.params fresh
      in
      let combo_agree =
        let cc = Placement.Instance.combo_config cell
        and cf = Placement.Instance.combo_config fresh in
        cc.Placement.Combo.lambdas = cf.Placement.Combo.lambdas
        && cc.Placement.Combo.assigned = cf.Placement.Combo.assigned
        && cc.Placement.Combo.lb = cf.Placement.Combo.lb
      in
      (* The cached DP must also agree with plain Combo.optimize (default
         levels, exact binomials recomputed per call). *)
      let plain_combo_agrees =
        (Placement.Combo.optimize (Placement.Params.make ~b:b2 ~r ~s ~n ~k:k2)).lb
        = (Placement.Instance.combo_config cell).Placement.Combo.lb
      in
      choose_agrees && levels_agree && params_agree && combo_agree
      && plain_combo_agrees)

let () =
  Alcotest.run "placement"
    [
      ( "params",
        [
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "load cap" `Quick test_load_cap;
        ] );
      ( "layout",
        [
          test_layout_incidence_inverse;
          test_layout_failed_objects_bruteforce;
          Alcotest.test_case "concat" `Quick test_layout_concat;
          Alcotest.test_case "scatter widths" `Quick test_layout_scatter_widths;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "lambda_min values" `Quick test_lambda_min;
          test_lambda_min_eqn1;
          Alcotest.test_case "lbAvail_si" `Quick test_lb_avail_si;
          Alcotest.test_case "theorem 1" `Quick test_theorem1;
          Alcotest.test_case "competitive limit" `Quick test_competitive_limit;
        ] );
      ( "simple",
        [
          Alcotest.test_case "Eqn-1 lambda" `Quick test_simple_of_design_lambda;
          test_simple_satisfies_definition2;
          test_simple_spread_keeps_definition2;
          Alcotest.test_case "spread preserves lambda" `Quick test_simple_spread_same_lambda;
          Alcotest.test_case "complete entry streams" `Quick test_simple_of_entry_complete;
          test_simple_lower_bound_nonneg;
        ] );
      ( "combo",
        [
          test_combo_dp_matches_bruteforce;
          test_combo_assignment_covers_b;
          Alcotest.test_case "lb sound vs exact adversary" `Slow test_combo_lb_sound_small;
          Alcotest.test_case "Eqn 4 evaluation" `Quick test_combo_lb_avail_co_at_k;
          Alcotest.test_case "insufficient capacity" `Quick test_combo_insufficient_capacity;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "matches offline DP" `Quick test_adaptive_matches_offline;
          Alcotest.test_case "bound sound vs exact adversary" `Quick test_adaptive_bound_sound;
          test_adaptive_churn_invariants;
          Alcotest.test_case "Definition 2 per level" `Quick test_adaptive_layout_definition2;
          Alcotest.test_case "remove unknown" `Quick test_adaptive_remove_unknown;
          Alcotest.test_case "ids not reused" `Quick test_adaptive_ids_not_reused;
          test_adaptive_membership_invariants;
          Alcotest.test_case "hint list stays bounded" `Quick test_adaptive_hint_list_bounded;
          Alcotest.test_case "incidence rebuilt as the lazy level grows" `Quick
            test_adaptive_incidence_rebuilt;
        ] );
      ( "random_placement",
        [
          test_random_respects_cap;
          Alcotest.test_case "determinism" `Quick test_random_deterministic;
          Alcotest.test_case "unconstrained" `Quick test_random_unconstrained_valid;
        ] );
      ( "adversary",
        [
          test_adversary_exact_is_optimal;
          test_adversary_ordering;
          test_adversary_attack_shape;
          Alcotest.test_case "global budget beats static split" `Quick
            test_exact_budget_starvation;
          test_adversary_exact_vs_enumeration;
          test_counting_bound_admissible;
          test_search_is_strict_dfs;
        ] );
      ( "kernel",
        [
          test_layout_incidence_memoized;
          test_kernel_incremental_vs_naive;
          test_kernel_greedy_identical;
          test_kernel_group_greedy_identical;
          test_kernel_group_churn;
          Alcotest.test_case "packed base > unit degree" `Quick
            test_kernel_group_packed_base;
          Alcotest.test_case "add/remove guards" `Quick test_kernel_double_add;
          test_kernel_dyn_oracle;
          Alcotest.test_case "Dyn ≡ from-scratch, n=1100" `Quick
            test_kernel_dyn_1100_units;
          Alcotest.test_case "dyn guards" `Quick test_kernel_dyn_guards;
          Alcotest.test_case "dyn swap-remove" `Quick
            test_kernel_dyn_swap_remove;
          Alcotest.test_case "dyn worst_case restores its scratch" `Quick
            test_kernel_dyn_worst_case_reset;
          test_kernel_greedy_from_prefix;
          test_finishers_exact;
        ] );
      ( "codec",
        [
          test_codec_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_codec_rejects_malformed;
          Alcotest.test_case "file roundtrip" `Quick test_codec_file_roundtrip;
        ] );
      ( "copyset",
        [
          test_copyset_structure;
          test_copyset_scatter_width_bound;
          Alcotest.test_case "placement valid" `Quick test_copyset_place_valid;
          Alcotest.test_case "bad args" `Quick test_copyset_bad_args;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "dominates all strategies" `Slow test_optimal_dominates_everything;
          Alcotest.test_case "self-consistent" `Quick test_optimal_matches_adversary;
          Alcotest.test_case "Theorem 1 empirical" `Slow test_theorem1_empirical;
          test_ub_any_placement_dominates_optimal;
          Alcotest.test_case "upper bound sanity" `Quick test_ub_any_placement_sane;
          Alcotest.test_case "budget guard" `Quick test_optimal_too_large;
        ] );
      ( "instance",
        [ test_with_cell_matches_fresh ] );
      ( "random_analysis",
        [
          test_alpha_vs_bruteforce;
          test_fail_probability_in_unit;
          Alcotest.test_case "pr_avail range/monotone" `Quick test_pr_avail_range_and_monotone;
          Alcotest.test_case "extreme k" `Quick test_pr_avail_k_equals_n_minus_one;
          Alcotest.test_case "Lemma 4 upper bound" `Quick test_lemma4_upper_bounds_pr_avail;
          Alcotest.test_case "Lemma 4 preconditions" `Quick test_lemma4_preconditions;
          test_log_vuln_decreasing;
        ] );
    ]
