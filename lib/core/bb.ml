(* The exact branch-and-bound search shared by the node adversary
   (Adversary.exact) and the domain adversary (Topology.Adversary.exact).

   Shape (DESIGN.md §15): after one check at the root, each first pick
   u in 0..n-k runs a strict lexicographic DFS over the k-sets whose
   smallest unit is u, on its own Kernel.Finishers copy.  The same
   function runs through Engine.Pool.parallel_map when a pool is given
   and through Array.map otherwise: one code path at any -j.

   Determinism from one keyed incumbent.  The shared Engine.Bound holds
   key v u = v·(n+1) + (n-u): the value, then a tie-break favouring the
   lower root.  Root u expands a node only if its potential beats the
   root's own best strictly AND key pot u beats the shared key — so a
   tie survives exactly against values published by LATER roots, whose
   sets lose the merge to u's anyway.  The lexicographically first
   maximizer therefore always survives, whatever the schedule, and the
   merge (best value, ties to the lowest root) reports it.  Without a
   pool the roots run in order, every published key comes from a root
   <= u, and the rule reads "pot > best so far": exactly the strict DFS,
   node for node.

   Pruning takes the smaller of two admissible bounds on what m more
   picks from units >= start can add: the degree sum top_deg.(start).(m)
   and the counting bound (finisher counts plus C(m,2) times the suffix
   pair co-occurrence).  Every kernel copy is wrapped in
   Kernel.Finishers, whose add and remove keep the finisher counts
   exact.

   Truncation: the node budget is one atomic count drawn in blocks.
   Once it is spent, which subtrees were explored is timing-dependent,
   so any "best so far" would not be -j-stable; the search reports the
   seed instead (value = seed, set = None, truncated = true) and the
   caller falls back to its greedy attack. *)

type stats = {
  nodes : int;
  leaves : int;
  prunes : int;
  improvements : int;
  kernel_updates : int;
}

type result = {
  value : int;  (* max(seed, best leaf found); = seed when truncated *)
  set : int array option;  (* ascending; None = the seed attack stands *)
  truncated : bool;
  stats : stats;
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

let search ?pool ~budget ~kernel:kn0 ~k ~seed () =
  let n = Kernel.units kn0 in
  if k <= 0 || k > n then invalid_arg "Bb.search: k out of range";
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
  let key v u = (v * (n + 1)) + (n - u) in
  let shared = Engine.Bound.create (key seed 0) in
  let remaining = Atomic.make budget and exhausted = Atomic.make false in
  (* Grant up to [block] nodes, or 0 once the budget is spent. *)
  let rec draw () =
    let left = Atomic.get remaining in
    if left <= 0 then begin
      Atomic.set exhausted true;
      0
    end
    else if Atomic.compare_and_set remaining left (left - min block left) then
      min block left
    else draw ()
  in
  let root u =
    let fs = Kernel.Finishers.copy fs0 in
    let path = Array.make k u in
    let quota = ref 0 and nodes = ref 0 and leaves = ref 0 in
    let prunes = ref 0 and improvements = ref 0 in
    let best = ref seed and best_set = ref None in
    let rec go start depth =
      if !quota = 0 && not (Atomic.get exhausted) then quota := draw ();
      if !quota > 0 then begin
        decr quota;
        incr nodes;
        if depth = k then begin
          incr leaves;
          let v = Kernel.killed (Kernel.Finishers.kernel fs) in
          if v > !best then begin
            incr improvements;
            best := v;
            best_set := Some (Array.copy path);
            ignore (Engine.Bound.improve shared (key v u))
          end
        end
        else begin
          let pot = potential fs ~start ~m:(k - depth) in
          if pot > !best && key pot u > Engine.Bound.get shared then
            for nd = start to n - (k - depth) do
              if !quota > 0 || not (Atomic.get exhausted) then begin
                path.(depth) <- nd;
                Kernel.Finishers.add fs nd;
                go (nd + 1) (depth + 1);
                Kernel.Finishers.remove fs nd
              end
            done
          else incr prunes
        end
      end
    in
    Kernel.Finishers.add fs u;
    go (u + 1) 1;
    ignore (Atomic.fetch_and_add remaining !quota);
    let stats =
      {
        nodes = !nodes;
        leaves = !leaves;
        prunes = !prunes;
        improvements = !improvements;
        kernel_updates = Kernel.updates (Kernel.Finishers.kernel fs);
      }
    in
    (!best, !best_set, stats)
  in
  (* The root itself: one node, outside the budget, cut when the seed
     already meets the bound (the greedy attack is then optimal). *)
  let expand = potential fs0 ~start:0 ~m:k > seed in
  let firsts = if expand then Array.init (n - k + 1) Fun.id else [||] in
  let roots =
    match pool with
    | Some p -> Engine.Pool.parallel_map p root firsts
    | None -> Array.map root firsts
  in
  let stats =
    Array.fold_left
      (fun acc (_, _, (st : stats)) ->
        {
          nodes = acc.nodes + st.nodes;
          leaves = acc.leaves + st.leaves;
          prunes = acc.prunes + st.prunes;
          improvements = acc.improvements + st.improvements;
          kernel_updates = acc.kernel_updates + st.kernel_updates;
        })
      {
        nodes = 1;
        leaves = 0;
        prunes = (if expand then 0 else 1);
        improvements = 0;
        kernel_updates = 0;
      }
      roots
  in
  if Atomic.get exhausted then { value = seed; set = None; truncated = true; stats }
  else begin
    (* Best value wins, the lowest root takes ties: the lexicographic
       rule (see header). *)
    let best = ref seed and best_set = ref None in
    Array.iter
      (fun (v, set, _) ->
        if v > !best then begin
          best := v;
          best_set := set
        end)
      roots;
    { value = !best; set = !best_set; truncated = false; stats }
  end
