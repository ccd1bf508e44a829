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
  flush_greedy : work:int -> updates:int -> unit;
  flush_bb : Bb.stats -> unit;
  truncations : Telemetry.Counter.t;
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
    flush_greedy =
      (fun ~work ~updates:u ->
        Telemetry.Counter.incr runs;
        Telemetry.Counter.add evals work;
        Telemetry.Counter.add updates u);
    flush_bb =
      (fun st -> List.iter (fun (c, get) -> Telemetry.Counter.add c (get st)) bb);
    truncations = volatile "bb/truncations";
  }

let core = metrics "core/adversary"
let m_kernel_updates = Telemetry.Registry.counter "core/adversary/kernel/updates"
let m_attack_span = Telemetry.Registry.span "core/adversary/attack"
let m_ls_restarts = Telemetry.Registry.counter "core/adversary/local_search/restarts"
let m_ls_passes = Telemetry.Registry.counter "core/adversary/local_search/passes"
let m_ls_swaps = Telemetry.Registry.counter "core/adversary/local_search/swaps"
let m_attack_exact = Telemetry.Registry.counter "core/adversary/attack/exact_dispatch"
let m_attack_heur = Telemetry.Registry.counter "core/adversary/attack/heuristic_dispatch"

(* One-shot scoring: a single O(b·r) merge pass with no allocation.
   Routing this through a throwaway Kernel would allocate its O(b)
   counter plane on every call; repeated-eval callers should hold a
   {!Kernel.t} across calls instead (Kernel.check, or add + killed). *)
let eval layout ~s failed_nodes = Layout.failed_objects layout ~s ~failed_nodes

let pmap pool f xs =
  match pool with
  | Some p -> Engine.Pool.parallel_map p f xs
  | None -> Array.map f xs

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
  if k = 0 then { units = [||]; killed = 0; optimal = true }
  else begin
    let g = search_greedy m (Kernel.copy kn) ~k in
    let r =
      Bb.search ?pool ~budget ~kernel:kn ~k ~seed:g.killed ()
    in
    m.flush_bb r.Bb.stats;
    if r.Bb.truncated then begin
      Telemetry.Counter.incr m.truncations;
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

(* Returns (passes, swaps): full sweeps of the outer loop and accepted
   swap moves — plain locals, flushed by the caller. *)
let improve_to_local_opt st chosen =
  let n = Array.length chosen in
  let improved = ref true in
  let passes = ref 0 and swaps = ref 0 in
  while !improved do
    improved := false;
    incr passes;
    (try
       for nd_in = 0 to n - 1 do
         if chosen.(nd_in) then begin
           Kernel.remove st nd_in;
           chosen.(nd_in) <- false;
           (* First-improvement swap search. *)
           let found = ref (-1) and found_gain = ref 0 in
           for nd_out = 0 to n - 1 do
             if (not chosen.(nd_out)) && nd_out <> nd_in then begin
               let newly, _ = Kernel.marginal st nd_out in
               if newly > !found_gain then begin
                 found := nd_out;
                 found_gain := newly
               end
             end
           done;
           (* Putting nd_in back yields damage gain (its own marginal); a
              swap wins only if some other node strictly beats it. *)
           let back_gain, _ = Kernel.marginal st nd_in in
           if !found >= 0 && !found_gain > back_gain then begin
             chosen.(!found) <- true;
             Kernel.add st !found;
             incr swaps;
             improved := true;
             raise Exit
           end
           else begin
             chosen.(nd_in) <- true;
             Kernel.add st nd_in
           end
         end
       done
     with Exit -> ())
  done;
  (!passes, !swaps)

let attack_of_state st chosen =
  let nodes = ref [] in
  Array.iteri (fun nd c -> if c then nodes := nd :: !nodes) chosen;
  {
    failed_nodes = Combin.Intset.of_array (Array.of_list !nodes);
    failed_objects = Kernel.killed st;
    exact = false;
  }

let local_search ~rng ?(restarts = 8) ?pool layout ~s ~k =
  let n = layout.Layout.n in
  let restarts = max 1 restarts in
  let kn0 = Kernel.make layout ~s in
  (* One pre-split RNG per restart: each restart's stream is a function of
     its index alone, so the plan is bit-identical at any [-j].  Restart 0
     is the deterministic greedy seed and draws nothing. *)
  let rngs = Combin.Rng.split_n rng restarts in
  let run_restart i =
    let st = Kernel.copy kn0 in
    let chosen = Array.make n false in
    let seed_nodes =
      if i = 0 then (greedy layout ~s ~k).failed_nodes
      else Combin.Rng.sample_distinct rngs.(i) ~n ~k
    in
    Array.iter
      (fun nd ->
        chosen.(nd) <- true;
        Kernel.add st nd)
      seed_nodes;
    let passes, swaps = improve_to_local_opt st chosen in
    (attack_of_state st chosen, passes, swaps, Kernel.updates st)
  in
  let indices = Array.init restarts Fun.id in
  let results = pmap pool run_restart indices in
  let candidates = Array.map (fun (a, _, _, _) -> a) results in
  (* Per-restart stats flushed in restart order on the calling domain. *)
  Array.iter
    (fun (_, passes, swaps, updates) ->
      Telemetry.Counter.incr m_ls_restarts;
      Telemetry.Counter.add m_ls_passes passes;
      Telemetry.Counter.add m_ls_swaps swaps;
      Telemetry.Counter.add m_kernel_updates updates)
    results;
  (* First-index-wins max: the earliest restart reaching the best damage
     provides the reported node set, as in the sequential reference. *)
  let best = ref candidates.(0) in
  Array.iter
    (fun a -> if a.failed_objects > !best.failed_objects then best := a)
    candidates;
  !best

let exact_limit = 5e7

(* Estimated exact-search work: search-tree leaves times per-node update
   cost (the average number of objects per node). *)
let attack_cost ~n ~r ~b ~k =
  let combos =
    match Combin.Binomial.exact_opt n k with
    | Some c -> float_of_int c
    | None -> infinity
  in
  combos *. (float_of_int (r * b) /. float_of_int n)

let attack ?pool ?rng ?(restarts = 8) layout ~s ~k =
  Telemetry.Span.time m_attack_span @@ fun () ->
  let rng = match rng with Some r -> r | None -> Combin.Rng.create 0xADE5 in
  let n = layout.Layout.n in
  let cost = attack_cost ~n ~r:layout.Layout.r ~b:(Layout.b layout) ~k in
  if cost <= exact_limit then begin
    Telemetry.Counter.incr m_attack_exact;
    let result = exact ?pool layout ~s ~k in
    if not result.exact then
      Log.warn (fun m ->
          m
            "exact adversary exhausted its global node budget on n=%d b=%d \
             s=%d k=%d: reporting the greedy attack as a heuristic"
            n (Layout.b layout) s k);
    result
  end
  else begin
    Telemetry.Counter.incr m_attack_heur;
    Log.debug (fun m ->
        m
          "adversary search space too large on n=%d b=%d s=%d k=%d \
           (~%.3g evals): result is heuristic (local search, %d restarts)"
          n (Layout.b layout) s k cost restarts);
    local_search ~rng ~restarts ?pool layout ~s ~k
  end

let avail layout ~s:_ attack = Layout.b layout - attack.failed_objects
