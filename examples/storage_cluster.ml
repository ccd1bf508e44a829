(* Storage cluster: GFS/HDFS-style triple replication.

   A 71-node storage cluster holds 2400 chunks, each replicated 3 ways
   (the GFS/Hadoop default the paper cites).  We look at two access
   semantics for the same layout:

   - majority quorum (s = 2): a chunk is readable/writable while 2 of 3
     replicas live;
   - read-any (s = 3): a chunk is readable while any replica lives.

   The worst k failures differ per semantics, so we evaluate both.

   Run with:  dune exec examples/storage_cluster.exe *)

let nodes = 71
let chunks = 2400

let evaluate name layout =
  Printf.printf "-- %s --\n" name;
  List.iter
    (fun (sem, s) ->
      List.iter
        (fun k ->
          let attack = Placement.Adversary.exact layout ~s ~k in
          Printf.printf "  %-22s k=%d: %4d / %d chunks survive (%s adversary)\n"
            (Dsim.Semantics.describe sem) k
            (Placement.Adversary.avail layout ~s attack)
            chunks
            (if attack.Placement.Adversary.exact then "exact" else "heuristic"))
        [ 3; 5 ])
    [ (Dsim.Semantics.Majority, 2); (Dsim.Semantics.Read_any, 3) ]

let () =
  Printf.printf "== %d chunks, r=3, on %d storage nodes ==\n" chunks nodes;

  (* Combo placement optimized for majority quorums and 5 failures. *)
  let inst = Placement.Instance.make ~b:chunks ~r:3 ~s:2 ~n:nodes ~k:5 () in
  let plan = Placement.Instance.combo_config inst in
  Printf.printf
    "combo plan (s=2, k=5): lower bound %d; lambda per level: %s\n"
    plan.Placement.Combo.lb
    (String.concat ","
       (Array.to_list (Array.map string_of_int plan.Placement.Combo.lambdas)));
  let combo_layout = Placement.Instance.combo_layout ~config:plan inst in
  evaluate "combo (STS-based) placement" combo_layout;

  let rng = Combin.Rng.create 11 in
  let random_layout = Placement.Instance.random_layout ~rng inst in
  evaluate "load-balanced random placement" random_layout;

  (* Maintenance what-if: drain two specific nodes for an upgrade.  The
     cluster model answers which chunks lose quorum. *)
  let cluster = Dsim.Cluster.create combo_layout Dsim.Semantics.Majority in
  Dsim.Cluster.fail_node cluster 12;
  Dsim.Cluster.fail_node cluster 40;
  let degraded = Dsim.Cluster.unavailable_objects cluster in
  Printf.printf
    "draining nodes 12 and 40 for maintenance: %d chunks lose majority%s\n"
    (List.length degraded)
    (if degraded = [] then " (safe to proceed)" else "");
  Dsim.Cluster.recover_all cluster
