(* Erasure-coded stripes under the paper's model.

   The paper's (r, s) framework covers coded storage directly: a (6, 4)
   MDS code stores 6 fragments per stripe on 6 distinct nodes, and the
   stripe dies once 3 fragments are lost (s = r − j + 1 = 3, the same
   quantity Dsim.Semantics.Erasure computes).

   This example places 600 coded stripes on a 31-node cluster with a
   Combo placement — the x = 1 level is the projective plane PG(2,5)
   (2-(31,6,1)) and the x = 2 level the spherical 3-(26,6,1), both
   generated by the designs library — and compares its worst-case
   guarantee against random placement.

   Run with:  dune exec examples/erasure_coding.exe *)

let n = 31
let fragments = 6 (* r: coded fragments per stripe *)
let data = 4 (* j: fragments needed to reconstruct *)
let stripes = 600

let () =
  let s = Dsim.Semantics.fatality_threshold (Dsim.Semantics.Erasure data) ~r:fragments in
  Printf.printf
    "(%d,%d) MDS coded stripes: a stripe dies after s = %d fragment losses\n"
    fragments data s;
  let base = Placement.Instance.make ~b:stripes ~r:fragments ~s ~n ~k:3 () in
  List.iter
    (fun k ->
      let inst = Placement.Instance.with_cell base ~b:stripes ~k in
      let plan = Placement.Instance.combo_config inst in
      let layout = Placement.Instance.combo_layout ~config:plan inst in
      let attack = Placement.Instance.attack inst layout in
      let rng = Combin.Rng.create (3000 + k) in
      let random_layout = Placement.Instance.random_layout ~rng inst in
      let random_attack = Placement.Instance.attack inst random_layout in
      Printf.printf
        "k=%d nodes down: combo guarantees %d/%d stripes (measured %d); random: %d (predicted %d)\n"
        k plan.Placement.Combo.lb stripes
        (Placement.Adversary.avail layout ~s attack)
        (Placement.Adversary.avail random_layout ~s random_attack)
        (Placement.Instance.pr_avail inst))
    [ 3; 4; 5 ];
  (* Show which designs the plan used. *)
  let inst = Placement.Instance.with_cell base ~b:stripes ~k:4 in
  let plan = Placement.Instance.combo_config inst in
  Printf.printf "\ndesigns used at k=4:\n";
  Array.iteri
    (fun x lambda ->
      if lambda > 0 then
        Printf.printf "  x=%d lambda=%d: %s (%d stripes)\n" x lambda
          (match plan.Placement.Combo.levels.(x).Placement.Combo.entry with
          | Some e -> e.Designs.Registry.name
          | None -> "?")
          plan.Placement.Combo.assigned.(x))
    plan.Placement.Combo.lambdas;
  (* Cross-check the cluster-level erasure semantics agree with the
     threshold arithmetic. *)
  let layout = Placement.Instance.combo_layout ~config:plan inst in
  let cluster = Dsim.Cluster.create layout (Dsim.Semantics.Erasure data) in
  let attack = Placement.Instance.attack inst layout in
  Array.iter (Dsim.Cluster.fail_node cluster) attack.Placement.Adversary.failed_nodes;
  Printf.printf
    "cluster simulation agrees: %d stripes reconstructable after the worst 4 failures\n"
    (Dsim.Cluster.available_objects cluster)
