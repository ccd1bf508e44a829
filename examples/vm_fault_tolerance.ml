(* VM fault tolerance: the paper's first motivating workload.

   VMware-FT-style VM replication runs each protected VM as a
   primary/secondary pair (r = 2); a VM dies only when BOTH its hosts die
   (s = 2).  We protect 400 VMs on a 31-host cluster and ask: if an
   attacker (or a correlated outage) takes out 2-4 specific hosts, how
   many VMs can we guarantee stay up?

   Run with:  dune exec examples/vm_fault_tolerance.exe *)

let hosts = 31
let vms = 400

let () =
  Printf.printf "== VM fault tolerance: %d primary/secondary VM pairs on %d hosts ==\n"
    vms hosts;
  let base = Placement.Instance.make ~b:vms ~r:2 ~s:2 ~n:hosts ~k:2 () in
  List.iter
    (fun k ->
      let inst = Placement.Instance.with_cell base ~b:vms ~k in
      let plan = Placement.Instance.combo_config inst in
      let layout = Placement.Instance.combo_layout ~config:plan inst in
      let attack = Placement.Instance.attack inst layout in
      let rng = Combin.Rng.create (100 + k) in
      let random_layout = Placement.Instance.random_layout ~rng inst in
      let random_attack = Placement.Instance.attack inst random_layout in
      Printf.printf
        "k=%d hosts down: combo guarantees %d up (measured %d); random placement: %d up (predicted %d)\n"
        k plan.Placement.Combo.lb
        (Placement.Adversary.avail layout ~s:2 attack)
        (Placement.Adversary.avail random_layout ~s:2 random_attack)
        (Placement.Instance.pr_avail inst))
    [ 2; 3; 4 ];

  (* Rack-correlated failure: put the 31 hosts in 8 racks of ~4 and fail
     two whole racks.  With r = 2 and s = 2 a VM dies only if both its
     hosts land in the failed racks. *)
  let inst = Placement.Instance.with_cell base ~b:vms ~k:8 in
  let plan = Placement.Instance.combo_config inst in
  let layout = Placement.Instance.combo_layout ~config:plan inst in
  let racks = Array.init hosts (fun h -> h mod 8) in
  let cluster =
    Dsim.Cluster.create ~topology:(Topology.Build.of_racks racks) layout
      (Dsim.Semantics.Threshold 2)
  in
  let rng = Combin.Rng.create 7 in
  let failed = Dsim.Scenario.apply ~rng cluster (Dsim.Scenario.Random_racks 2) in
  Printf.printf
    "two random racks down (%d hosts): %d / %d VMs survive on the combo layout\n"
    (Array.length failed)
    (Dsim.Cluster.available_objects cluster)
    vms;
  (* The same placement's guarantee against a targeted failure of that
     many hosts (racks are a weaker adversary than a free choice). *)
  Printf.printf "guarantee against the worst %d arbitrary hosts: %d\n"
    (Array.length failed)
    (Placement.Combo.lb_avail_co ~choose:(Placement.Instance.choose inst) plan
       ~k:(Array.length failed))
