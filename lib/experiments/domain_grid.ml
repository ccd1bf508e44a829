type row = {
  n : int;
  r : int;
  s : int;
  b : int;
  racks : int;
  j : int;
  covered : int;
  rack_avail : int;
  rack_exact : bool;
  node_avail : int;
  node_exact : bool;
  lb : int;
}

let span = Grid.cell_span "domain_grid"

(* The Fig. 4 concrete designs (the baseline cells), with rack counts
   chosen so the racks are small multiples of r — 31 nodes in 8 racks of
   3–4, 71 in 12 racks of 5–6. *)
let cells =
  [ (31, 3, 2, 3, 600, 8); (31, 3, 3, 4, 600, 8); (71, 3, 2, 4, 2400, 12) ]

let compute ?pool () =
  List.concat
    (Grid.map ~span
       (fun (n, r, s, k, b, racks) ->
         (* The adversaries parallelize internally; the cells stay
            sequential so Engine pools are never nested. *)
         let inst = Placement.Instance.make ~b ~r ~s ~n ~k () in
         let layout = Placement.Instance.combo_layout inst in
         let tree = Topology.Build.partition ~n ~domains:racks () in
         let lambda = Placement.Layout.max_load layout in
         List.map
           (fun j ->
             let rack_atk = Topology.Adversary.exact ?pool layout ~s tree ~level:1 ~j in
             let covered = Array.length rack_atk.Topology.Adversary.failed_nodes in
             let node_atk = Placement.Adversary.exact ?pool layout ~s ~k:covered in
             let lb =
               (Topology.Bound.si_report
                  ~choose:(Placement.Instance.choose inst)
                  ~b ~x:0 ~lambda ~s tree ~level:1 ~j)
                 .Topology.Bound.si.Placement.Analysis.lb_clamped
             in
             {
               n;
               r;
               s;
               b;
               racks;
               j;
               covered;
               rack_avail = Topology.Adversary.avail layout rack_atk;
               rack_exact = rack_atk.Topology.Adversary.exact;
               node_avail =
                 Placement.Adversary.avail layout ~s node_atk;
               node_exact = node_atk.Placement.Adversary.exact;
               lb;
             })
           [ 1; 2 ])
       cells)

let print ?pool fmt =
  Format.fprintf fmt
    "Domain grid: worst j racks vs worst k = covered nodes (combo layouts)@.";
  Format.fprintf fmt
    "(rack adversary is the node adversary restricted to whole racks;@.";
  Format.fprintf fmt
    " lb = Lemma 2 at x=0, lambda = max load, k = covered nodes)@.";
  let mark avail exact = Printf.sprintf "%d%s" avail (if exact then "" else "~") in
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.n;
          string_of_int r.r;
          string_of_int r.s;
          string_of_int r.b;
          string_of_int r.racks;
          string_of_int r.j;
          string_of_int r.covered;
          mark r.rack_avail r.rack_exact;
          mark r.node_avail r.node_exact;
          string_of_int r.lb;
        ])
      (compute ?pool ())
  in
  Format.fprintf fmt "%s@."
    (Render.table
       ~headers:
         [ "n"; "r"; "s"; "b"; "racks"; "j"; "covered"; "rack adv"; "node adv"; "lb" ]
       ~rows);
  Format.fprintf fmt "(~ marks heuristic/truncated adversary results)@."
