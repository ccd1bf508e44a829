(* Availability over time: continuous fail-and-repair, not one-shot.

   The paper optimizes for the worst single episode of k failures;
   operators also care about long-run SLOs under routine churn.  This
   example runs a year-long (in arbitrary units) failure/repair
   simulation over the same three placements the baseline bench compares
   — Combo, Random, Copyset — and reports time-weighted "nines".

   Node failure rate and repair speed are set so ~2 nodes are down at a
   typical instant on the 31-node cluster (a harsh environment, to make
   differences visible).

   Run with:  dune exec examples/availability_timeline.exe *)

let n = 31
let r = 3
let s = 2 (* majority quorum *)
let b = 600

(* Before the churn run: replay the worst single episode on the same
   cluster, then recover it so the long-run simulation below starts
   clean. *)
let worst_episode name cluster layout =
  let atk = Placement.Adversary.exact layout ~s ~k:3 in
  Printf.printf "%-10s worst episode, objects up after each failure:" name;
  Array.iter
    (fun nd ->
      Dsim.Cluster.apply_event cluster (Dsim.Event.Node_fail nd);
      Printf.printf " %d (node %d down)"
        (Dsim.Cluster.available_objects cluster)
        nd)
    atk.Placement.Adversary.failed_nodes;
  print_newline ();
  Dsim.Cluster.recover_all cluster

let simulate name layout =
  let cluster = Dsim.Cluster.create layout (Dsim.Semantics.Threshold s) in
  worst_episode name cluster layout;
  let rng = Combin.Rng.create 0x71E5 in
  let config =
    { Dsim.Repair.failure_rate = 0.01; mean_repair = 6.0; horizon = 20000.0 }
  in
  let stats = Dsim.Repair.run ~rng cluster config in
  Printf.printf
    "%-10s avg unavailable %.3f / %d; peak %d objs (%d nodes down); %d incidents; %.2f nines\n"
    name stats.Dsim.Repair.avg_unavailable b
    stats.Dsim.Repair.worst_unavailable stats.Dsim.Repair.worst_nodes_down
    stats.Dsim.Repair.incidents (Dsim.Repair.nines stats)

let () =
  Printf.printf
    "long-run churn on n=%d, b=%d, r=%d, majority quorums (same seed for all placements)\n"
    n b r;
  let inst = Placement.Instance.make ~b ~r ~s ~n ~k:3 () in
  let combo = Placement.Instance.combo_layout inst in
  simulate "combo" combo;
  let rng = Combin.Rng.create 99 in
  let random = Placement.Instance.random_layout ~rng inst in
  simulate "random" random;
  let copyset = snd (Placement.Instance.copyset ~rng inst) in
  simulate "copyset" copyset;
  Printf.printf
    "\nnote: under RANDOM failures the three placements are nearly\n\
     indistinguishable on long-run nines -- the paper's point is that the\n\
     worst-case episode (see baseline-copyset bench) is where they differ.\n"
