let log_src =
  Logs.Src.create "placement.adversary" ~doc:"worst-case adversary search"

module Log = (val Logs.src_log log_src : Logs.LOG)

type attack = {
  failed_nodes : int array;
  failed_objects : int;
  exact : bool;
}

(* Search statistics, registered once per adversary under its own
   prefix ("core/adversary" for nodes, "topology/adversary" for fault
   domains) — the same search runs behind both.  On a pool the B&B (Bb)
   prunes against a shared incumbent that tightens mid-flight, so which
   nodes get explored — and with it every per-node count — is
   timing-dependent: Volatile.  Kernel counters (see Kernel and
   DESIGN.md §10): the greedy paths flush deterministic counts into the
   Stable [kernel/updates]; the search's kernel traffic follows its
   exploration and is Volatile.  Hot loops accumulate plain local ints
   inside Kernel and Bb and flush here once per search. *)
type metrics = {
  prefix : string;
  flush_greedy : work:int -> updates:int -> unit;
  flush_bb : Bb.stats -> unit;
  truncations : Telemetry.Counter.t;
  span : Telemetry.Span.t;  (* [<prefix>/attack]: one exact search *)
}

let metrics prefix =
  let path name = prefix ^ "/" ^ name in
  let stable name = Telemetry.Registry.counter (path name) in
  let volatile name = Telemetry.Registry.counter ~kind:Volatile (path name) in
  let runs = stable "greedy/runs" and evals = stable "greedy/marginal_evals"
  and updates = stable "kernel/updates" in
  let bb =
    List.map
      (fun (name, get) -> (volatile name, get))
      [
        ("bb/nodes_expanded", fun (st : Bb.stats) -> st.nodes);
        ("bb/leaves", fun st -> st.leaves);
        ("bb/bound_prunes", fun st -> st.prunes);
        ("bb/improvements", fun st -> st.improvements);
        ("bb/kernel_updates", fun st -> st.kernel_updates);
      ]
  in
  {
    prefix;
    flush_greedy =
      (fun ~work ~updates:u ->
        Telemetry.Counter.incr runs;
        Telemetry.Counter.add evals work;
        Telemetry.Counter.add updates u);
    flush_bb =
      (fun st -> List.iter (fun (c, get) -> Telemetry.Counter.add c (get st)) bb);
    truncations = volatile "bb/truncations";
    span = Telemetry.Registry.span (path "attack");
  }

let core = metrics "core/adversary"

(* One-shot scoring: a single O(b·r) merge pass with no allocation.
   Routing this through a throwaway Kernel would allocate its O(b)
   counter plane on every call; repeated-eval callers should hold a
   {!Kernel.t} across calls instead (Kernel.check, or add + killed). *)
let eval layout ~s failed_nodes = Layout.failed_objects layout ~s ~failed_nodes

type search = { units : int array; killed : int; optimal : bool }

let search_greedy m kn ~k =
  let picks, work = Kernel.select_greedy kn ~picks:k in
  m.flush_greedy ~work ~updates:(Kernel.updates kn);
  {
    units = Combin.Intset.of_array picks;
    killed = Kernel.killed kn;
    optimal = false;
  }

(* Greedy runs on a copy: the search needs [kn] all-up. *)
let search_exact ?(budget = 50_000_000) ?pool m kn ~k =
  Telemetry.Span.time m.span @@ fun () ->
  if k = 0 then { units = [||]; killed = 0; optimal = true }
  else begin
    let g = search_greedy m (Kernel.copy kn) ~k in
    let r =
      Bb.search ?pool ~budget ~kernel:kn ~k ~seed:g.killed ()
    in
    m.flush_bb r.Bb.stats;
    if r.Bb.truncated then begin
      Telemetry.Counter.incr m.truncations;
      Log.warn (fun f ->
          f
            "%s: the exact search exhausted its node budget of %d on %d \
             units, k=%d, b=%d: reporting the greedy attack as a heuristic"
            m.prefix budget (Kernel.units kn) k (Kernel.objects kn));
      g
    end
    else
      match r.Bb.set with
      | Some set ->
          {
            units = Combin.Intset.of_array set;
            killed = r.Bb.value;
            optimal = true;
          }
      | None -> { g with optimal = true }
  end

let of_search r =
  { failed_nodes = r.units; failed_objects = r.killed; exact = r.optimal }

let greedy layout ~s ~k =
  of_search (search_greedy core (Kernel.make layout ~s) ~k)

let exact ?budget ?pool layout ~s ~k =
  if k >= layout.Layout.n then invalid_arg "Adversary.exact: k >= n";
  of_search (search_exact ?budget ?pool core (Kernel.make layout ~s) ~k)

let avail layout ~s:_ attack = Layout.b layout - attack.failed_objects
