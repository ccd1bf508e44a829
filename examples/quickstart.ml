(* Quickstart: place 600 triple-replicated objects on a 31-node cluster so
   that a worst-case 3-node failure kills as few objects as possible, and
   compare against load-balanced random placement.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 600 objects, 3 replicas each, an object dies once 2 of its replicas
     do (majority quorum), and we plan for 3 simultaneous node failures.
     The Instance carries the problem parameters plus the cached design
     levels and binomial tables every call below draws from. *)
  let inst = Placement.Instance.make ~b:600 ~r:3 ~s:2 ~n:31 ~k:3 () in
  let params = Placement.Instance.params inst in

  (* 1. Ask the library for the availability-optimal Combo placement.  The
     dynamic program picks how many objects to place at each overlap level
     x (Sec. III-B of the paper). *)
  let plan = Placement.Instance.combo_config inst in
  Printf.printf "Combo plan: lower bound %d/%d objects survive any %d failures\n"
    plan.Placement.Combo.lb params.Placement.Params.b params.Placement.Params.k;
  Array.iteri
    (fun x lambda ->
      if lambda > 0 then
        Printf.printf "  level x=%d: lambda=%d, %d objects on a %s\n" x lambda
          plan.Placement.Combo.assigned.(x)
          (match plan.Placement.Combo.levels.(x).Placement.Combo.entry with
          | Some e -> e.Designs.Registry.name
          | None -> "?"))
    plan.Placement.Combo.lambdas;

  (* 2. Materialize it into an actual node assignment and attack it. *)
  let layout = Placement.Instance.combo_layout ~config:plan inst in
  let attack = Placement.Instance.attack inst layout in
  Printf.printf "adversary (%s) fails %d objects -> %d available\n"
    (if attack.Placement.Adversary.exact then "exact" else "heuristic")
    attack.Placement.Adversary.failed_objects
    (Placement.Adversary.avail layout ~s:2 attack);

  (* 3. Compare with a load-balanced random placement under the same
     worst-case adversary. *)
  let rng = Combin.Rng.create 2025 in
  let random_layout = Placement.Instance.random_layout ~rng inst in
  let random_attack = Placement.Instance.attack inst random_layout in
  Printf.printf "random placement under the same adversary: %d available\n"
    (Placement.Adversary.avail random_layout ~s:2 random_attack);
  Printf.printf "analytic prediction for random (prAvail): %d\n"
    (Placement.Instance.pr_avail inst);

  (* 4. Watch availability evolve on a live cluster as nodes fail. *)
  let cluster = Dsim.Cluster.create layout Dsim.Semantics.Majority in
  let measure label =
    let available = Dsim.Cluster.available_objects cluster in
    Printf.printf "[%s] failed_nodes=%d available=%d unavailable=%d\n" label
      (Array.length (Dsim.Cluster.failed_nodes cluster))
      available
      (Dsim.Cluster.b cluster - available)
  in
  let fail i =
    Dsim.Cluster.apply_event cluster
      (Dsim.Event.Node_fail attack.Placement.Adversary.failed_nodes.(i))
  in
  measure "t0: all 31 nodes up";
  fail 0;
  measure "t1: first node down";
  fail 1;
  measure "t2: second node down";
  fail 2;
  measure "t3: third node down (planned worst case)";
  Dsim.Cluster.recover_all cluster;
  measure "t4: recovered"
