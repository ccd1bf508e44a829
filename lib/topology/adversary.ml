type attack = {
  failed_domains : int array;
  failed_nodes : int array;
  failed_objects : int;
  exact : bool;
}

(* The node adversary's unit-level search, counted under its own
   prefix. *)
let m = Placement.Adversary.metrics "topology/adversary"

(* Attack units are same-level fault domains, which are disjoint node
   sets: the kernel regroups the layout's node rows per domain and keeps
   multiplicities, since a domain may hold several replicas of one
   object. *)
let kernel_of layout tree ~level ~s =
  let members =
    Array.init (Tree.domain_count tree ~level) (Tree.members tree ~level)
  in
  Placement.Kernel.make ~domains:members layout ~s

let check layout tree ~level ~j =
  if layout.Placement.Layout.n <> Tree.n tree then
    invalid_arg
      (Printf.sprintf
         "Topology.Adversary: layout has n=%d but the topology has %d nodes"
         layout.Placement.Layout.n (Tree.n tree));
  Failset.validate tree ~level ~j

let of_search tree ~level (r : Placement.Adversary.search) =
  {
    failed_domains = r.units;
    failed_nodes = Failset.nodes tree ~level r.units;
    failed_objects = r.killed;
    exact = r.optimal;
  }

(* One-shot scoring: expand the domains to their node set and run the
   plain O(b·r) merge — no per-call rebuild of the domain incidence.
   Repeated-eval callers should hold a kernel from {!kernel_of}. *)
let eval layout ~s tree ~level domains =
  Placement.Layout.failed_objects layout ~s
    ~failed_nodes:(Failset.nodes tree ~level domains)

let greedy layout ~s tree ~level ~j =
  check layout tree ~level ~j;
  of_search tree ~level
    (Placement.Adversary.search_greedy m (kernel_of layout tree ~level ~s) ~k:j)

let exact ?budget ?pool layout ~s tree ~level ~j =
  check layout tree ~level ~j;
  of_search tree ~level
    (Placement.Adversary.search_exact ?budget ?pool m
       (kernel_of layout tree ~level ~s)
       ~k:j)

let avail layout attack = Placement.Layout.b layout - attack.failed_objects
