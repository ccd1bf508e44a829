type t = {
  layout : Placement.Layout.t;
  semantics : Semantics.t;
  s : int;
  topology : Topology.Tree.t;
  rack_level : int;
  kernel : Placement.Kernel.t;
      (* per-object hit counters + dead tally, O(load) per node event *)
  up : bool array;
}

let create ?topology layout semantics =
  let n = layout.Placement.Layout.n in
  let topology =
    match topology with
    | None -> Topology.Build.flat n
    | Some topo ->
        if Topology.Tree.n topo <> n then
          invalid_arg
            (Printf.sprintf
               "Cluster.create: topology has %d nodes but the layout has %d"
               (Topology.Tree.n topo) n);
        topo
  in
  let rack_level = min 1 (Topology.Tree.depth topology - 1) in
  let s = Semantics.fatality_threshold semantics ~r:layout.Placement.Layout.r in
  {
    layout;
    semantics;
    s;
    topology;
    rack_level;
    kernel = Placement.Kernel.make layout ~s;
    up = Array.make n true;
  }

let layout t = t.layout
let semantics t = t.semantics
let fatality_threshold t = t.s
let n t = t.layout.Placement.Layout.n
let b t = Placement.Layout.b t.layout
let topology t = t.topology
let rack_level t = t.rack_level
let node_up t nd = t.up.(nd)

let failed_nodes t =
  let out = ref [] in
  for nd = n t - 1 downto 0 do
    if not t.up.(nd) then out := nd :: !out
  done;
  Array.of_list !out

let fail_node t nd =
  if t.up.(nd) then begin
    t.up.(nd) <- false;
    Placement.Kernel.add t.kernel nd
  end

let recover_node t nd =
  if not t.up.(nd) then begin
    t.up.(nd) <- true;
    Placement.Kernel.remove t.kernel nd
  end

let recover_all t =
  for nd = 0 to n t - 1 do
    recover_node t nd
  done

let fail_domain t ~level d =
  Array.iter (fail_node t) (Topology.Tree.members t.topology ~level d)

(* The unified event vocabulary (see Event): a cluster consumes the
   infrastructure events; object churn needs the adaptive engine
   (Churn) because this layout is fixed at creation. *)
let apply_event t ev =
  match ev with
  | Event.Node_fail nd -> fail_node t nd
  | Event.Node_recover nd -> recover_node t nd
  | Event.Domain_fail (level, d) -> fail_domain t ~level d
  | Event.Measure _ -> ()
  | Event.Object_create | Event.Object_delete _ ->
      invalid_arg
        "Cluster.apply_event: object churn needs Dsim.Churn (a cluster's \
         layout is fixed)"
  | Event.Node_join _ | Event.Node_leave _ ->
      invalid_arg
        "Cluster.apply_event: membership churn needs Dsim.Churn (a cluster's \
         node set is fixed)"

let object_available t obj = Placement.Kernel.hits t.kernel obj < t.s

let available_objects t = b t - Placement.Kernel.killed t.kernel

let unavailable_objects t =
  let out = ref [] in
  for obj = b t - 1 downto 0 do
    if not (object_available t obj) then out := obj :: !out
  done;
  !out

let live_replicas t obj =
  t.layout.Placement.Layout.r - Placement.Kernel.hits t.kernel obj
