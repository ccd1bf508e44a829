let m_events = Telemetry.Registry.counter "sim/churn/events"
let m_moved = Telemetry.Registry.counter "sim/churn/moved_replicas"
let m_rescore_evals = Telemetry.Registry.counter "sim/churn/rescore/evals"
let m_rescore_pops = Telemetry.Registry.counter "sim/churn/rescore/heap_pops"
let sp_apply = Telemetry.Registry.span "sim/churn/apply"
let sp_rescore = Telemetry.Registry.span "sim/churn/rescore"

(* Fault-injection site (armed only under the dst harness): a leave's
   capacity preflight spuriously refuses, exercising the retire/unretire
   rollback path below. *)
let inj_capacity = Inject.register "dst/capacity_preflight"

type t = {
  n : int;
  r : int;
  s : int;
  k : int;
  topology : Topology.Tree.t;
  placement : Placement.Adaptive.t;
  dyn : Placement.Kernel.Dyn.t;
      (* also the one record of which nodes are down; which nodes have
         left is the placement's retirement set *)
  id_slot : (int, int) Hashtbl.t;  (* adaptive object id -> dyn slot *)
  mutable slot_id : int array;  (* dyn slot -> adaptive object id *)
  mutable events : int;
  mutable moved : int;
}

type step = {
  seq : int;
  event : Event.t;
  moved : int;
  live : int;
  available : int;
  failed_nodes : int;
  lower_bound : int;
}

type rescore = { attack : int array; worst_available : int }

let create ?levels ?topology ~n ~r ~s ~k () =
  let topology =
    match topology with
    | None -> Topology.Build.flat n
    | Some topo ->
        if Topology.Tree.n topo <> n then
          invalid_arg
            (Printf.sprintf
               "Churn.create: topology has %d nodes but n is %d"
               (Topology.Tree.n topo) n);
        topo
  in
  {
    n;
    r;
    s;
    k;
    topology;
    placement = Placement.Adaptive.create ?levels ~n ~r ~s ~k ();
    dyn = Placement.Kernel.Dyn.create ~units:n ~s;
    id_slot = Hashtbl.create 64;
    slot_id = [||];
    events = 0;
    moved = 0;
  }

let n t = t.n
let r t = t.r
let s t = t.s
let k t = t.k
let topology t = t.topology
let live t = Placement.Kernel.Dyn.objects t.dyn
let events t = t.events
let moved_replicas (t : t) = t.moved
let node_up t nd = not (Placement.Kernel.Dyn.failed t.dyn nd)
let failed_nodes t = Placement.Kernel.Dyn.failed_units t.dyn
let failed_count t = Placement.Kernel.Dyn.failed_count t.dyn
let node_in_service t nd = not (Placement.Adaptive.retired t.placement nd)
let nodes_in_service t = t.n - Placement.Adaptive.retired_count t.placement
let node_load t nd = Placement.Kernel.Dyn.load t.dyn nd

let available t = live t - Placement.Kernel.Dyn.killed t.dyn
let lower_bound ?k t = Placement.Adaptive.lower_bound ?k t.placement
let layout t = Placement.Adaptive.layout t.placement

let check_node t nd =
  if nd < 0 || nd >= t.n then
    invalid_arg
      (Printf.sprintf "Churn: node %d out of range (n = %d)" nd t.n)

let check_in_service t nd what =
  if not (node_in_service t nd) then
    invalid_arg
      (Printf.sprintf "Churn: cannot %s node %d (it has left the cluster)"
         what nd)

let fail_node t nd =
  check_node t nd;
  check_in_service t nd "fail";
  if node_up t nd then Placement.Kernel.Dyn.fail_unit t.dyn nd

let recover_node t nd =
  check_node t nd;
  check_in_service t nd "recover";
  if not (node_up t nd) then Placement.Kernel.Dyn.recover_unit t.dyn nd

(* Register [id]'s replica set with the kernel and bind the id↔slot
   maps. *)
let bind_object t id rs =
  let slot = Placement.Kernel.Dyn.add_object t.dyn rs in
  if slot = Array.length t.slot_id then begin
    let grown = Array.make (max 16 (2 * slot)) (-1) in
    Array.blit t.slot_id 0 grown 0 slot;
    t.slot_id <- grown
  end;
  t.slot_id.(slot) <- id;
  Hashtbl.replace t.id_slot id slot

(* Drop [id]'s kernel registration (the adaptive assignment is the
   caller's business).  Dyn keeps slots dense: the object in [lastslot]
   (if any) moved into [slot] — mirror that in the id maps. *)
let unbind_object t id slot =
  let lastslot = Placement.Kernel.Dyn.remove_object t.dyn slot in
  Hashtbl.remove t.id_slot id;
  if lastslot <> slot then begin
    let moved_id = t.slot_id.(lastslot) in
    t.slot_id.(slot) <- moved_id;
    Hashtbl.replace t.id_slot moved_id slot
  end;
  t.slot_id.(lastslot) <- -1

let create_object t =
  let id = Placement.Adaptive.add t.placement in
  let rs = Placement.Adaptive.replica_set t.placement id in
  bind_object t id rs;
  Array.length rs

let delete_object t id =
  match Hashtbl.find_opt t.id_slot id with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Churn: delete of unknown object id %d (never created or already \
            deleted)"
           id)
  | Some slot ->
      Placement.Adaptive.remove t.placement id;
      unbind_object t id slot

(* Count the replicas of [nw] that are not already in [old] — the data
   actually shipped by a relocation. *)
let moved_replicas_between old nw =
  Array.fold_left
    (fun acc u -> if Array.exists (fun v -> v = u) old then acc else acc + 1)
    0 nw

(* Permanent departure.  Bounded movement: only the objects hosting a
   replica on [nd] are touched — the load nd slots of its kernel row,
   relocated in increasing id order — each re-placed wholesale by the
   adaptive routing rule, so at most r replicas ship per evicted object
   and nothing else moves.  The node's blocks are blocked first
   (retire), so the re-route can never hand an object back to the
   leaver; if the placement has no capacity left for the relocations
   the retirement is rolled back and nothing has changed. *)
let leave_node t nd =
  check_node t nd;
  check_in_service t nd "leave";
  let evicted =
    Array.map (fun slot -> t.slot_id.(slot)) (Placement.Kernel.Dyn.row t.dyn nd)
  in
  Array.sort compare evicted;
  Placement.Adaptive.retire_node t.placement nd;
  if Inject.fire inj_capacity then begin
    Placement.Adaptive.unretire_node t.placement nd;
    invalid_arg
      (Printf.sprintf
         "Churn: injected fault at dst/capacity_preflight refused the leave \
          of node %d (state rolled back)"
         nd)
  end;
  if evicted <> [||] && not (Placement.Adaptive.has_capacity t.placement)
  then begin
    Placement.Adaptive.unretire_node t.placement nd;
    invalid_arg
      (Printf.sprintf
         "Churn: cannot relocate node %d's replicas (no placement capacity \
          left)"
         nd)
  end;
  let moved = ref 0 in
  Array.iter
    (fun id ->
      let slot = Hashtbl.find t.id_slot id in
      let old_rs = Placement.Kernel.Dyn.replicas t.dyn slot in
      Placement.Adaptive.replace t.placement id;
      let new_rs = Placement.Adaptive.replica_set t.placement id in
      unbind_object t id slot;
      bind_object t id new_rs;
      moved := !moved + moved_replicas_between old_rs new_rs)
    evicted;
  (* The leaver's row is empty now; a down node that leaves stops
     counting as failed (its loss is permanent, not an outage). *)
  if not (node_up t nd) then Placement.Kernel.Dyn.recover_unit t.dyn nd;
  !moved

let join_node t nd =
  check_node t nd;
  if node_in_service t nd then
    invalid_arg
      (Printf.sprintf "Churn: node %d is already in service (join expects a \
                       node that left)" nd);
  Placement.Adaptive.unretire_node t.placement nd

let apply t ev =
  Telemetry.Span.time sp_apply @@ fun () ->
  let moved =
    match ev with
    | Event.Node_fail nd ->
        fail_node t nd;
        0
    | Event.Node_recover nd ->
        recover_node t nd;
        0
    | Event.Domain_fail (level, d) ->
        let depth = Topology.Tree.depth t.topology in
        if level < 0 || level >= depth then
          invalid_arg
            (Printf.sprintf
               "Churn: domain level %d out of range (topology depth %d)"
               level depth);
        if d < 0 || d >= Topology.Tree.domain_count t.topology ~level then
          invalid_arg
            (Printf.sprintf
               "Churn: domain %d out of range at level %d (%d domains)"
               d level
               (Topology.Tree.domain_count t.topology ~level));
        (* A left node is no longer part of the domain's blast radius. *)
        Array.iter
          (fun m -> if node_in_service t m then fail_node t m)
          (Topology.Tree.members t.topology ~level d);
        0
    | Event.Node_join nd ->
        join_node t nd;
        0
    | Event.Node_leave nd -> leave_node t nd
    | Event.Object_create -> create_object t
    | Event.Object_delete id ->
        delete_object t id;
        0
    | Event.Measure _ -> 0
  in
  t.events <- t.events + 1;
  t.moved <- t.moved + moved;
  Telemetry.Counter.incr m_events;
  Telemetry.Counter.add m_moved moved;
  {
    seq = t.events;
    event = ev;
    moved;
    live = live t;
    available = available t;
    failed_nodes = failed_count t;
    lower_bound = lower_bound t;
  }

(* Advisory routing: the nodes the next [Object_create] would land on,
   via the placement's non-committing {!Placement.Adaptive.peek}. *)
let advise_create t = Placement.Adaptive.peek t.placement

let rescore ?k t =
  Telemetry.Span.time sp_rescore @@ fun () ->
  let k = Option.value ~default:t.k k in
  let picks, dead, stats = Placement.Kernel.Dyn.worst_case t.dyn ~k in
  Telemetry.Counter.add m_rescore_evals stats.Placement.Kernel.evals;
  Telemetry.Counter.add m_rescore_pops stats.Placement.Kernel.heap_pops;
  { attack = picks; worst_available = live t - dead }

(* The incremental ≡ from-scratch oracle, every layer at once:
   - the Dyn hits plane and dead tally against a straight recount;
   - the Adaptive bookkeeping invariants;
   - current availability against a freshly built flat Kernel over the
     live layout, evaluated one-shot on the failed-node set;
   - the incremental adversary's picks, damage and scan stats against
     select_greedy on that fresh kernel.
   O(b·r + greedy); tests and gates only. *)
let check t =
  let dyn_killed = Placement.Kernel.Dyn.killed t.dyn in
  let recount = Placement.Kernel.Dyn.check_scratch t.dyn in
  if recount <> dyn_killed then
    failwith
      (Printf.sprintf "Churn.check: incremental killed %d <> recount %d"
         dyn_killed recount);
  Placement.Adaptive.check_invariants t.placement;
  let layout = Placement.Adaptive.layout t.placement in
  let kn = Placement.Kernel.make layout ~s:t.s in
  let scratch_killed = Placement.Kernel.check kn (failed_nodes t) in
  if scratch_killed <> dyn_killed then
    failwith
      (Printf.sprintf
         "Churn.check: incremental killed %d <> from-scratch kernel %d"
         dyn_killed scratch_killed);
  let picks, dead, stats = Placement.Kernel.Dyn.worst_case t.dyn ~k:t.k in
  let picks_ref, stats_ref = Placement.Kernel.select_greedy kn ~picks:t.k in
  let dead_ref = Placement.Kernel.killed kn in
  if picks <> picks_ref then
    failwith "Churn.check: incremental adversary picks differ from scratch";
  if dead <> dead_ref then
    failwith
      (Printf.sprintf
         "Churn.check: incremental adversary kills %d <> scratch %d" dead
         dead_ref);
  if stats <> stats_ref then
    failwith "Churn.check: incremental adversary scan stats differ from scratch"
