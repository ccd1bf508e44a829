type t =
  | Adversarial of int
  | Random_nodes of int
  | Random_racks of int
  | Domain_failure of int * int
  | Explicit of int array

let describe = function
  | Adversarial k -> Printf.sprintf "worst-case failure of %d nodes" k
  | Random_nodes k -> Printf.sprintf "random failure of %d nodes" k
  | Random_racks j -> Printf.sprintf "random failure of %d racks" j
  | Domain_failure (level, j) ->
      Printf.sprintf "worst-case failure of %d level-%d domains" j level
  | Explicit nodes ->
      Printf.sprintf "explicit failure of %d nodes" (Array.length nodes)

(* The node set a scenario would fail.  Pure selection: reads the
   layout/topology (never the up/down state) and the rng, mutates
   nothing — so producing events before applying them consumes the
   same rng stream as the historical recover-then-fail order. *)
let select ~rng cluster t =
  match t with
  | Adversarial k ->
      let attack =
        Placement.Adversary.exact (Cluster.layout cluster)
          ~s:(Cluster.fatality_threshold cluster) ~k
      in
      attack.Placement.Adversary.failed_nodes
  | Random_nodes k -> Combin.Rng.sample_distinct rng ~n:(Cluster.n cluster) ~k
  | Random_racks j ->
      (* Racks are the domains of the cluster's rack level, in
         ascending id order: one sample_distinct draw over them. *)
      let topo = Cluster.topology cluster in
      let level = Cluster.rack_level cluster in
      let nr = Topology.Tree.domain_count topo ~level in
      if j > nr then invalid_arg "Scenario.apply: more racks than exist";
      let picked = Combin.Rng.sample_distinct rng ~n:nr ~k:j in
      Topology.Failset.nodes topo ~level picked
  | Domain_failure (level, j) ->
      let attack =
        Topology.Adversary.exact (Cluster.layout cluster)
          ~s:(Cluster.fatality_threshold cluster)
          (Cluster.topology cluster) ~level ~j
      in
      attack.Topology.Adversary.failed_nodes
  | Explicit nodes -> Combin.Intset.of_array nodes

(* Scenario → unified event stream: a reset (recover whatever is down
   right now) followed by the selected failures. *)
let events ~rng cluster t =
  let reset =
    Array.to_list (Cluster.failed_nodes cluster)
    |> List.map (fun nd -> Event.Node_recover nd)
  in
  let nodes = select ~rng cluster t in
  ( reset @ (Array.to_list nodes |> List.map (fun nd -> Event.Node_fail nd)),
    nodes )

let apply ~rng cluster t =
  let evs, nodes = events ~rng cluster t in
  List.iter (Cluster.apply_event cluster) evs;
  nodes

let run ~rng cluster t =
  let _ = apply ~rng cluster t in
  Cluster.available_objects cluster
