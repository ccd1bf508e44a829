(* The sharded branch-and-bound frontier shared by the node adversary
   (Adversary.exact) and the domain adversary (Topology.Adversary.exact).

   Shape (DESIGN.md §15): a deterministic sequential SPAWN phase expands
   the search tree to a spawn depth that is a pure function of the
   instance, pruning only against the greedy seed — every surviving
   depth-d prefix becomes a task, in lexicographic order.  Tasks are
   dealt round-robin into per-slot deques and drained with work stealing
   (Engine.Pool.parallel_steal); each worker slot keeps ONE long-lived
   kernel copy and moves between tasks by diffing prefixes (O(shared
   suffix · load) removes/adds), never by fresh O(b)-plane snapshots.
   All tasks draw node quota in blocks from one global atomic budget —
   no static per-branch split, so a heavy subtree can consume whatever
   its finished siblings left behind.

   Determinism without node-set determinism: tasks prune against
   max(local recorded best, shared incumbent) — strictly against the
   local value (an earlier leaf of the SAME task is lexicographically
   smaller, so ties are dead weight), but non-strictly against the
   shared Engine.Bound (a tying subtree elsewhere may hold the
   lexicographically smallest optimal leaf, and the shared cell is a
   timing-dependent lower bound of the optimum).  Leaves record
   strictly, so each task reports the lexicographically first leaf
   attaining its subtree maximum; the merge takes the best value with
   ties to the lowest task index.  Task prefixes at one depth are
   lexicographically ordered and prefix every set their subtree reports,
   so this IS the global lexicographic tie rule — the reported attack
   equals the sequential reference (spawn_depth = k) at any -j and any
   schedule, even though which nodes get pruned varies run to run.

   Pruning takes the smaller of two admissible bounds on what m more
   picks from units >= start can add: the degree sum top_deg.(start).(m)
   and the counting bound (finisher counts plus C(m,2) times the suffix
   pair co-occurrence), so no search prunes less than with the degree
   sum alone.  Every kernel copy is wrapped in Kernel.Finishers, whose
   add and remove keep the finisher counts exact.

   Greedy completions (Kernel.select_greedy over a task's remaining
   picks, on the worker's kernel copy) are pure pruning accelerators:
   they publish to the shared bound and are NEVER recorded as results,
   so gating them on timing-dependent worker state is safe.

   Truncation: once the global budget is exhausted, which subtrees were
   explored is timing-dependent, so any "best so far" would not be
   -j-stable.  The frontier instead reports the seed deterministically
   (value = seed, set = None, truncated = true) and the caller falls
   back to its greedy attack. *)

type stats = {
  spawn_depth : int;
  spawned_tasks : int;
  nodes : int;
  leaves : int;
  prunes : int;
  improvements : int;
  completions : int;
  bound_publications : int;
  steals : int;
  kernel_updates : int;
  undos : int;
  max_undo_depth : int;
}

type result = {
  value : int;  (* max(seed, best leaf found); = seed when truncated *)
  set : int array option;  (* ascending; None = the seed attack stands *)
  truncated : bool;
  stats : stats;
}

(* Per-worker scratch: one kernel copy per slot for the whole batch,
   retargeted between tasks by prefix diffing; plain-int statistics
   flushed by the caller after the batch. *)
type scratch = {
  fs : Kernel.Finishers.t;
  path : int array;  (* capacity k: applied prefix ++ DFS path *)
  mutable plen : int;  (* applied prefix length *)
  mutable quota : int;  (* node allowance drawn from the global budget *)
  mutable dead : bool;  (* this slot observed budget exhaustion *)
  mutable tasks_run : int;
  mutable nodes : int;
  mutable leaves : int;
  mutable prunes : int;
  mutable improvements : int;
  mutable completions : int;
  mutable publications : int;
  mutable undos : int;
  mutable max_undo_depth : int;
}

(* Block size for budget reservation: one atomic RMW per [block] nodes
   bounds both the atomic traffic and the past-exhaustion overshoot
   (at most block·workers nodes, whose results are discarded anyway). *)
let block = 1024

(* top_deg.(start).(m): sum of the m largest degrees among units with id
   >= start — an upper bound on additional damage from m more picks.
   Built by one suffix sweep that maintains the k largest degrees seen
   so far in a sorted scratch row (insertion is O(k)), for O(n·k) total
   against the O(n²·log n) of sorting every suffix; only the top k of a
   suffix ever enter a bound, so the values are identical. *)
let top_degrees ~degrees ~n ~k =
  let acc = Array.make_matrix (n + 1) (k + 1) 0 in
  let top = Array.make k 0 in
  let top_len = ref 0 in
  for start = n - 1 downto 0 do
    let d = degrees.(start) in
    if !top_len < k then begin
      let i = ref !top_len in
      while !i > 0 && top.(!i - 1) < d do
        top.(!i) <- top.(!i - 1);
        decr i
      done;
      top.(!i) <- d;
      incr top_len
    end
    else if k > 0 && d > top.(k - 1) then begin
      let i = ref (k - 1) in
      while !i > 0 && top.(!i - 1) < d do
        top.(!i) <- top.(!i - 1);
        decr i
      done;
      top.(!i) <- d
    end;
    let row = acc.(start) in
    for m = 1 to k do
      row.(m) <- row.(m - 1) + (if m - 1 < !top_len then top.(m - 1) else 0)
    done
  done;
  acc

(* The counting bound (Lemma 2): an object the next m picks kill is
   either killed by one pick alone, and then counted in that pick's
   finisher count, or hosted by two distinct picks, and then counted in
   that pair's co-occurrence.  With s = 1 no object needs two picks. *)
let counting_bound fs ~pair ~start ~m =
  Kernel.Finishers.top_fin fs ~start ~m
  + if Kernel.threshold (Kernel.Finishers.kernel fs) >= 2 then
      m * (m - 1) / 2 * pair.(start)
    else 0

(* Smallest depth whose full prefix count C(n, d) reaches [target]:
   enough tasks that stealing can balance any skew, few enough that the
   sequential spawn stays negligible.  A pure function of (n, k) — the
   spawn phase, and with it the task list, is bit-identical at any -j. *)
let default_spawn_depth ~n ~k =
  let target = 512 in
  let rec go d est =
    if d >= k then k
    else if est >= target then d
    else go (d + 1) (est * (n - d) / (d + 1))
  in
  go 1 n

let search ?pool ?spawn_depth ~budget ~kernel:kn0 ~k ~seed () =
  let n = Kernel.units kn0 in
  if k <= 0 || k > n then invalid_arg "Bb.search: k out of range";
  let spawn_depth =
    match spawn_depth with
    | Some d -> max 1 (min k d)
    | None -> default_spawn_depth ~n ~k
  in
  let degrees = Array.init n (Kernel.degree kn0) in
  let top_deg = top_degrees ~degrees ~n ~k in
  let fs0 = Kernel.Finishers.make kn0 in
  (* The pair term only enters with two picks to go and s >= 2. *)
  let pair =
    if k >= 2 && Kernel.threshold kn0 >= 2 then Kernel.Finishers.pairs fs0
    else Array.make (n + 1) 0
  in
  (* Optimistic damage of [fs]'s state plus m picks from units >= start:
     the smaller of the degree-sum and counting bounds, both admissible. *)
  let potential fs ~start ~m =
    Kernel.killed (Kernel.Finishers.kernel fs)
    + min top_deg.(start).(m) (counting_bound fs ~pair ~start ~m)
  in
  let shared = Engine.Bound.create seed in
  (* ---- spawn phase: sequential, prunes against the seed (and, when
     spawn_depth = k, its own strictly-improving best) only ---- *)
  let ks = Kernel.Finishers.copy fs0 in
  let spath = Array.make k 0 in
  let prefixes = ref [] in
  let ntasks = ref 0 in
  let sbest = ref seed and sbest_set = ref None in
  let snodes = ref 0 and sleaves = ref 0 and sprunes = ref 0 in
  let simproves = ref 0 and sundos = ref 0 and smax_undo = ref 0 in
  let struncated = ref false in
  let rec sgo start depth =
    if depth = spawn_depth && depth < k then begin
      (* Emit: the task re-checks against the live shared bound at its
         root, so this filter only spares dead-on-arrival descriptors. *)
      if potential ks ~start ~m:(k - depth) > !sbest then begin
        prefixes := Array.sub spath 0 depth :: !prefixes;
        incr ntasks
      end
      else incr sprunes
    end
    else begin
      incr snodes;
      if !snodes > budget then struncated := true
      else if depth = k then begin
        (* Inline leaf: only reachable when spawn_depth = k, i.e. the
           whole search runs here — the sequential reference. *)
        incr sleaves;
        let v = Kernel.killed (Kernel.Finishers.kernel ks) in
        if v > !sbest then begin
          incr simproves;
          sbest := v;
          sbest_set := Some (Array.sub spath 0 k);
          ignore (Engine.Bound.improve shared v)
        end
      end
      else if potential ks ~start ~m:(k - depth) > !sbest then
        for nd = start to n - (k - depth) do
          if not !struncated then begin
            spath.(depth) <- nd;
            Kernel.Finishers.add ks nd;
            sgo (nd + 1) (depth + 1);
            Kernel.Finishers.remove ks nd;
            incr sundos;
            if depth + 1 > !smax_undo then smax_undo := depth + 1
          end
        done
      else incr sprunes
    end
  in
  sgo 0 0;
  let task_prefixes =
    let a = Array.make !ntasks [||] in
    List.iteri (fun i p -> a.(!ntasks - 1 - i) <- p) !prefixes;
    a
  in
  (* ---- parallel phase ---- *)
  let remaining = Atomic.make (budget - !snodes) in
  let exhausted = Atomic.make !struncated in
  let workers = match pool with Some p -> Engine.Pool.domains p | None -> 1 in
  let scratches = Array.make workers None in
  let scratch_for w =
    match scratches.(w) with
    | Some sc -> sc
    | None ->
        let sc =
          {
            fs = Kernel.Finishers.copy fs0;
            path = Array.make k 0;
            plen = 0;
            quota = 0;
            dead = false;
            tasks_run = 0;
            nodes = 0;
            leaves = 0;
            prunes = 0;
            improvements = 0;
            completions = 0;
            publications = 0;
            undos = 0;
            max_undo_depth = 0;
          }
        in
        scratches.(w) <- Some sc;
        sc
  in
  let refill sc =
    if Atomic.get exhausted then sc.dead <- true
    else begin
      let old = Atomic.fetch_and_add remaining (-block) in
      if old <= 0 then begin
        Atomic.set exhausted true;
        sc.dead <- true
      end
      else sc.quota <- min block old
    end
  in
  let retarget sc prefix =
    let pl = Array.length prefix in
    let c = ref 0 in
    while !c < sc.plen && !c < pl && sc.path.(!c) = prefix.(!c) do incr c done;
    for i = sc.plen - 1 downto !c do
      Kernel.Finishers.remove sc.fs sc.path.(i)
    done;
    for i = !c to pl - 1 do
      sc.path.(i) <- prefix.(i);
      Kernel.Finishers.add sc.fs prefix.(i)
    done;
    sc.plen <- pl
  in
  (* Publish-only greedy completion of the applied prefix: raises the
     shared pruning bound and records nothing (see header).  It runs on
     the bare kernel and removes its picks again, so the hits, and with
     them the finisher counts, are back where they were. *)
  let probe sc =
    let picks = k - sc.plen in
    if picks > 0 then begin
      let st = Kernel.Finishers.kernel sc.fs in
      let sel, _ = Kernel.select_greedy st ~picks in
      let v = Kernel.killed st in
      if Engine.Bound.improve shared v then
        sc.publications <- sc.publications + 1;
      for i = Array.length sel - 1 downto 0 do
        Kernel.remove st sel.(i)
      done;
      sc.completions <- sc.completions + 1
    end
  in
  let results = Array.make !ntasks None in
  let run_task ~worker idx =
    if not (Atomic.get exhausted) then begin
      let sc = scratch_for worker in
      sc.dead <- false;
      retarget sc task_prefixes.(idx);
      if sc.tasks_run land 31 = 0 then probe sc;
      sc.tasks_run <- sc.tasks_run + 1;
      let fs = sc.fs in
      let st = Kernel.Finishers.kernel fs in
      let local_best = ref seed and local_set = ref None in
      let rec go start depth =
        if sc.quota <= 0 then refill sc;
        if not sc.dead then begin
          sc.quota <- sc.quota - 1;
          sc.nodes <- sc.nodes + 1;
          if depth = k then begin
            sc.leaves <- sc.leaves + 1;
            let v = Kernel.killed st in
            if v > !local_best then begin
              sc.improvements <- sc.improvements + 1;
              local_best := v;
              local_set := Some (Array.sub sc.path 0 k);
              if Engine.Bound.improve shared v then
                sc.publications <- sc.publications + 1
            end
          end
          else begin
            let pot = potential fs ~start ~m:(k - depth) in
            if pot > !local_best && pot >= Engine.Bound.get shared then
              for nd = start to n - (k - depth) do
                if not sc.dead then begin
                  sc.path.(depth) <- nd;
                  Kernel.Finishers.add fs nd;
                  go (nd + 1) (depth + 1);
                  Kernel.Finishers.remove fs nd;
                  sc.undos <- sc.undos + 1;
                  if depth + 1 > sc.max_undo_depth then
                    sc.max_undo_depth <- depth + 1
                end
              done
            else sc.prunes <- sc.prunes + 1
          end
        end
      in
      go (sc.path.(sc.plen - 1) + 1) sc.plen;
      (* Results survive only from tasks that ran to completion: a task
         cut short by the budget reports nothing, and the whole search
         degrades to the deterministic seed fallback below. *)
      (if not sc.dead then
         match !local_set with
         | Some set -> results.(idx) <- Some (!local_best, set)
         | None -> ());
      (* Return unclaimed quota so "exhausted" means the TOTAL budget is
         genuinely spent, not that some block ran dry early. *)
      if sc.quota > 0 then begin
        ignore (Atomic.fetch_and_add remaining sc.quota);
        sc.quota <- 0
      end
    end
  in
  let task_ids = Array.init !ntasks Fun.id in
  let steals =
    match pool with
    | Some p when !ntasks > 0 -> Engine.Pool.parallel_steal p ~f:run_task task_ids
    | _ ->
        Array.iter (fun idx -> run_task ~worker:0 idx) task_ids;
        0
  in
  let truncated = !struncated || Atomic.get exhausted in
  (* ---- merge + stats ---- *)
  let nodes = ref !snodes and leaves = ref !sleaves and prunes = ref !sprunes in
  let improvements = ref !simproves and completions = ref 0 in
  let publications = ref 0 in
  let undos = ref !sundos and max_undo_depth = ref !smax_undo in
  let kernel_updates = ref (Kernel.updates (Kernel.Finishers.kernel ks)) in
  Array.iter
    (function
      | None -> ()
      | Some sc ->
          nodes := !nodes + sc.nodes;
          leaves := !leaves + sc.leaves;
          prunes := !prunes + sc.prunes;
          improvements := !improvements + sc.improvements;
          completions := !completions + sc.completions;
          publications := !publications + sc.publications;
          undos := !undos + sc.undos;
          if sc.max_undo_depth > !max_undo_depth then
            max_undo_depth := sc.max_undo_depth;
          kernel_updates :=
            !kernel_updates + Kernel.updates (Kernel.Finishers.kernel sc.fs))
    scratches;
  let stats =
    {
      spawn_depth;
      spawned_tasks = !ntasks;
      nodes = !nodes;
      leaves = !leaves;
      prunes = !prunes;
      improvements = !improvements;
      completions = !completions;
      bound_publications = !publications;
      steals;
      kernel_updates = !kernel_updates;
      undos = !undos;
      max_undo_depth = !max_undo_depth;
    }
  in
  if truncated then { value = seed; set = None; truncated = true; stats }
  else begin
    (* Strict improvement, lowest task index wins ties — the global
       lexicographic rule (see header).  The spawn-inline best covers
       the spawn_depth = k case, where no tasks exist. *)
    let best = ref !sbest and best_set = ref !sbest_set in
    Array.iter
      (function
        | Some (v, set) when v > !best ->
            best := v;
            best_set := Some set
        | _ -> ())
      results;
    { value = !best; set = !best_set; truncated = false; stats }
  end
