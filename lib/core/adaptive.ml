(* Per-level state.  Blocks live in a growable pool, [members]: one
   int32 plane off the OCaml heap, block i's r nodes at entries r·i ..
   r·i+r-1.  A fixed design streams its blocks straight into [members]
   up front, sized from its registry entry's block count, with no boxed
   copy between; the complete (x = r-1) level appends fresh
   lexicographic r-subsets on demand.  A block's usage counts its live
   objects; [hist] is a histogram of usages so the maximum (and hence
   the effective λ) is maintained under both adds and removes.

   Node retirement (permanent leave): a block containing a retired node
   is BLOCKED — never routed to — and the churn engine immediately
   re-places every object assigned to it, so outside that transient a
   blocked block always has usage 0.  A block's blocked count is its
   number of retired members (a node may rejoin, unblocking blocks that contain no other
   retired node); [nblocked] is the number of blocked blocks, so the
   eligible pool size is nblocks - nblocked.  Since blocked blocks sit
   at usage 0 in steady state, the usage histogram (which only tracks
   usage >= 1) and hence the effective λ accounting are untouched.
   Usage and blocked count share one word per block in [cells].
   A retire or rejoin finds the node's blocks through [incidence], a
   node -> blocks index in CSR form: two int32 planes built by one
   counting sort over [members] on the first retire or rejoin (a level
   that never loses a node never pays for it), and rebuilt by the next
   one once the lazy level's pool has grown past what it covers.  Its
   cost is then the node's blocks, one [cells] word and one min-index
   leaf each, not the design.

   Min-index: "the lowest-index eligible block with usage below a
   threshold" is answered in O(log nblocks) by a min-tree over 64-block
   chunks.  A block's key is its usage, or max_int when blocked; a leaf
   holds its chunk's minimum key (max_int past nblocks), an inner node
   the minimum of its children.  A query descends to the leftmost chunk
   whose minimum is below the threshold and scans at most 64 keys.
   Chunked leaves keep the index at ~2·nblocks/64 words (64 KB for the
   166,167 blocks of STS(999)).  An update changes one key, and every
   key in a chunk is at least its leaf's old minimum: a key at or below
   that minimum is the new one, a key above it leaves the minimum in
   place as soon as another block of the chunk holds it, and only
   otherwise is the chunk rescanned.  A changed leaf walks up until an
   ancestor is unchanged.

   Open list: the blocks that ended an occupy or vacate below the
   maximum usage, newest first, linked from [head] through [next] and
   back through [prev] (-1 ends either way; [prev] = [unlisted] off the
   list).  A push moves a listed block to the front, so the list holds
   at most one entry per block and needs no compaction. *)
type plane = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Node nd's blocks are [blocks] entries [start.{nd}] ..
   [start.{nd+1}] - 1, ascending, over the first [built] pool blocks. *)
type incidence = { start : plane; blocks : plane; built : int }

type level_state = {
  spec : Combo.level;
  mutable members : plane;  (* r entries per block; grows for the lazy level *)
  mutable nblocks : int;
  mutable cells : int array;
      (* per block, usage in the low [blocked_shift] bits and the
         blocked count above them; its length is the pool's capacity *)
  mutable hist : int array;  (* hist.(u) = #blocks with usage u, u >= 1 *)
  mutable max_usage : int;
  mutable live : int;  (* objects at this level *)
  mutable head : int;  (* the open list's newest block, -1 when empty *)
  mutable next : plane;
  mutable prev : plane;
  mutable nblocked : int;  (* blocks with blocked > 0 *)
  mutable tree : int array;
      (* the min-index: chunk c's minimum at [leaves + c], node i's
         children at 2i and 2i+1, the root at 1 *)
  mutable leaves : int;  (* a power of two >= the number of chunks *)
  fresh : int array Seq.t ref option;
      (* lazy block source; a persistent Seq (not a closure) so
         {!choose_slot} can walk the upcoming blocks without consuming
         them *)
  mutable incidence : incidence option;  (* None until a retire or rejoin *)
}

type assignment = { level : int; block : int }

type t = {
  n : int;
  r : int;
  s : int;
  k : int;
  levels : level_state array;
  assignments : (int, assignment) Hashtbl.t;
  retired : bool array;
  mutable nretired : int;
  mutable next_id : int;
}

let get (p : plane) i = Int32.to_int p.{i}
let set (p : plane) i v = p.{i} <- Int32.of_int v
let unlisted = -2

(* A plane of [len] entries [v]; [grown] also copies [p] into its prefix. *)
let plane len v =
  let p = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
  Bigarray.Array1.fill p (Int32.of_int v);
  p

let grown (p : plane) len v =
  let q = plane len v in
  Bigarray.Array1.blit p (Bigarray.Array1.sub q 0 (Bigarray.Array1.dim p));
  q

(* Block [i]'s nodes, fresh. *)
let row t st i = Array.init t.r (fun j -> get st.members ((t.r * i) + j))

let blocked_count retired block =
  Array.fold_left (fun acc nd -> if retired.(nd) then acc + 1 else acc) 0 block

let blocked_shift = 32
let usage st i = st.cells.(i) land ((1 lsl blocked_shift) - 1)
let blocked st i = st.cells.(i) lsr blocked_shift

let imin (a : int) b = if a < b then a else b

let chunk_bits = 6
let chunk = 1 lsl chunk_bits

(* A block's key in the min-index: no threshold admits a blocked block. *)
let seg_key st i =
  let c = st.cells.(i) in
  if c lsr blocked_shift > 0 then max_int else c

let chunk_min st c =
  let lo = c lsl chunk_bits in
  let m = ref max_int in
  for i = lo to min st.nblocks (lo + chunk) - 1 do
    let key = seg_key st i in
    if key < !m then m := key
  done;
  !m

let build_index st =
  let nchunks = (st.nblocks + chunk - 1) lsr chunk_bits in
  let leaves = ref 1 in
  while !leaves < nchunks do
    leaves := 2 * !leaves
  done;
  let leaves = !leaves in
  let tree = Array.make (2 * leaves) max_int in
  for c = 0 to nchunks - 1 do
    tree.(leaves + c) <- chunk_min st c
  done;
  for i = leaves - 1 downto 1 do
    tree.(i) <- min tree.(2 * i) tree.(2 * i + 1)
  done;
  st.tree <- tree;
  st.leaves <- leaves

(* Re-derive the chunk holding block [i] after its key (and no other)
   changed, then each ancestor until one keeps its value.  A key at or
   below the leaf's old minimum is the new minimum; above it, the scan
   stops at the first other block still holding the old minimum, and
   only a chunk with none left yields its new minimum.  The scan starts
   next to [i] and wraps round the chunk: [i]'s neighbours share its
   cache line, and on a create they are the blocks the lowest-index
   fill has not reached yet, still at the old minimum. *)
let refresh st i =
  let c = i lsr chunk_bits in
  let node = ref (st.leaves + c) in
  let old = st.tree.(!node) in
  let key = seg_key st i in
  let m =
    if key <= old then key
    else begin
      let lo = c lsl chunk_bits in
      let stop = imin st.nblocks (lo + chunk) in
      let m = ref key and j = ref i and left = ref (stop - lo - 1) in
      while !left > 0 do
        j := if !j + 1 = stop then lo else !j + 1;
        let kj = seg_key st !j in
        if kj = old then begin
          m := old;
          left := 0
        end
        else begin
          if kj < !m then m := kj;
          decr left
        end
      done;
      !m
    end
  in
  if old <> m then begin
    st.tree.(!node) <- m;
    let changed = ref true in
    while !changed && !node > 1 do
      node := !node lsr 1;
      let v = imin st.tree.(2 * !node) st.tree.(2 * !node + 1) in
      if st.tree.(!node) = v then changed := false else st.tree.(!node) <- v
    done
  end

(* The lowest-index pool block that is not blocked and whose usage is
   below [bound] (max_int: any eligible block), in O(log nblocks). *)
let first_below st bound =
  if st.tree.(1) >= bound then None
  else begin
    let node = ref 1 in
    while !node < st.leaves do
      let left = 2 * !node in
      node := if st.tree.(left) < bound then left else left + 1
    done;
    let i = ref ((!node - st.leaves) lsl chunk_bits) in
    while seg_key st !i >= bound do
      incr i
    done;
    Some !i
  end

let unlink st i =
  let p = get st.prev i and nx = get st.next i in
  if p >= 0 then set st.next p nx else st.head <- nx;
  if nx >= 0 then set st.prev nx p;
  set st.prev i unlisted

let push st i =
  if get st.prev i <> unlisted then unlink st i;
  set st.prev i (-1);
  set st.next i st.head;
  if st.head >= 0 then set st.prev st.head i;
  st.head <- i

let grow_pool t st block =
  if st.nblocks = Array.length st.cells then begin
    let cap = max 8 (2 * st.nblocks) in
    st.cells <- Array.append st.cells (Array.make (cap - st.nblocks) 0);
    st.members <- grown st.members (cap * t.r) 0;
    st.next <- grown st.next cap unlisted;
    st.prev <- grown st.prev cap unlisted
  end;
  Array.iteri (fun j nd -> set st.members ((t.r * st.nblocks) + j) nd) block;
  let bc = blocked_count t.retired block in
  st.cells.(st.nblocks) <- bc lsl blocked_shift;
  if bc > 0 then st.nblocked <- st.nblocked + 1;
  st.nblocks <- st.nblocks + 1;
  let i = st.nblocks - 1 in
  if i lsr chunk_bits >= st.leaves then build_index st else refresh st i;
  i

let hist_add st u =
  if u >= 1 then begin
    if u >= Array.length st.hist then begin
      let hist = Array.make (max 8 (2 * u)) 0 in
      Array.blit st.hist 0 hist 0 (Array.length st.hist);
      st.hist <- hist
    end;
    st.hist.(u) <- st.hist.(u) + 1;
    if u > st.max_usage then st.max_usage <- u
  end

let hist_remove st u =
  if u >= 1 then begin
    st.hist.(u) <- st.hist.(u) - 1;
    while st.max_usage >= 1 && st.hist.(st.max_usage) = 0 do
      st.max_usage <- st.max_usage - 1
    done
  end

(* A fixed design's blocks, streamed into a plane of [e.blocks] rows
   with the checks {!Designs.Registry.materialize} makes: each block
   sorted, distinct and within the design's points, and as many blocks
   as the entry counts. *)
let fill_plane ~r (e : Designs.Registry.entry) iter =
  let nblocks = e.Designs.Registry.blocks in
  let mismatch () =
    failwith ("Adaptive: generator mismatch for " ^ e.Designs.Registry.name)
  in
  let members = plane (max 1 nblocks * r) 0 in
  let count = ref 0 in
  iter (fun blk ->
      if !count = nblocks then mismatch ();
      if Array.length blk <> r then
        invalid_arg "Adaptive: design block of wrong size";
      let base = r * !count in
      let prev = ref (-1) in
      for j = 0 to r - 1 do
        let nd = blk.(j) in
        if nd <= !prev || nd >= e.Designs.Registry.v then
          invalid_arg "Adaptive: design block not sorted, distinct and in range";
        set members (base + j) nd;
        prev := nd
      done;
      incr count);
  if !count <> nblocks then mismatch ();
  (members, nblocks)

let make_level ~r (spec : Combo.level) =
  let (members, nblocks), fresh =
    match spec.Combo.entry with
    | Some e when e.Designs.Registry.strength = e.Designs.Registry.block_size ->
        (* Complete level: stream r-subsets of the v points lazily. *)
        ( (plane r 0, 0),
          Some
            (ref
               (Designs.Trivial.subsets_seq ~v:e.Designs.Registry.v
                  ~r:e.Designs.Registry.block_size)) )
    | Some ({ Designs.Registry.source = Materialized iter; _ } as e) ->
        (fill_plane ~r e iter, None)
    | Some { Designs.Registry.source = Literature _; _ } | None ->
        ((plane r 0, 0), None)
  in
  let cap = max 1 nblocks in
  let st =
    {
      spec;
      members;
      nblocks;
      cells = Array.make cap 0;
      hist = Array.make 4 0;
      max_usage = 0;
      live = 0;
      head = -1;
      next = plane cap unlisted;
      prev = plane cap unlisted;
      nblocked = 0;
      tree = [||];
      leaves = 0;
      fresh;
      incidence = None;
    }
  in
  build_index st;
  st

let usable st = st.nblocks - st.nblocked > 0 || Option.is_some st.fresh

let create ?levels ~n ~r ~s ~k () =
  let specs =
    match levels with
    | Some l -> l
    | None -> Combo.default_levels ~n ~r ~s ()
  in
  let levels = Array.map (make_level ~r) specs in
  if not (Array.exists usable levels) then
    invalid_arg "Adaptive.create: no materializable level";
  {
    n;
    r;
    s;
    k;
    levels;
    assignments = Hashtbl.create 256;
    retired = Array.make n false;
    nretired = 0;
    next_id = 0;
  }

let n t = t.n
let r t = t.r
let s t = t.s
let size t = Hashtbl.length t.assignments
let retired t nd = t.retired.(nd)
let retired_count t = t.nretired
let has_capacity t = Array.exists usable t.levels

let effective_lambda st = st.spec.Combo.mu * st.max_usage

let lambdas t = Array.map effective_lambda t.levels

(* Where the next placement at a level goes, decided without touching
   the level: {!find_slot} commits the decision, {!peek} only reads its
   block. *)
type slot = Pool of int | Lazy of int array

type decision = {
  pick : slot option;  (* None: no eligible block, even after a λ bump *)
  drop : int;  (* open-list entries the pick takes off the front *)
  pulled : int array list;
      (* blocked lazy blocks passed over on the way, in pull order; they
         still enter the pool (and unblock if their retired node
         rejoins) *)
  rest : int array Seq.t;  (* the lazy source after the pick *)
}

(* Decision order: when the level is empty, the first eligible pool
   block, else the lazy source.  Otherwise the newest open-list block
   still below the maximum usage (the stale entries in front of it are
   dropped), else a fresh lazy block (usage 0 < max), else a rescan for
   a block below the maximum (the open list may have gone stale), else
   — the level is saturated at the current λ and growing λ by μ means —
   any eligible block; each of the last three drops the whole list.
   Blocked blocks (containing a retired node) are skipped everywhere.
   Both pool scans are min-index queries, so no step loops over the
   pool. *)
let choose_slot t st =
  let src = match st.fresh with Some src -> !src | None -> Seq.empty in
  let pool drop i = { pick = Some (Pool i); drop; pulled = []; rest = src } in
  let from_lazy drop =
    let rec go pulled s =
      match Seq.uncons s with
      | None -> { pick = None; drop; pulled = List.rev pulled; rest = s }
      | Some (blk, rest) ->
          if blocked_count t.retired blk > 0 then go (blk :: pulled) rest
          else
            let pulled = List.rev pulled in
            { pick = Some (Lazy blk); drop; pulled; rest }
    in
    go [] src
  in
  if st.max_usage = 0 then
    match first_below st max_int with
    | Some i -> pool 0 i
    | None -> from_lazy 0
  else
    let rec open_entry drop i =
      if i < 0 then Error drop
      else if seg_key st i < st.max_usage then Ok (i, drop + 1)
      else open_entry (drop + 1) (get st.next i)
    in
    match open_entry 0 st.head with
    | Ok (i, drop) -> pool drop i
    | Error drop ->
        let d = from_lazy drop in
        if Option.is_some d.pick then d
        else
          let rescan =
            match first_below st st.max_usage with
            | Some _ as found -> found
            | None -> first_below st max_int
          in
          { d with pick = Option.map (fun i -> Pool i) rescan }

let find_slot t st =
  let d = choose_slot t st in
  Option.iter (fun src -> src := d.rest) st.fresh;
  for _ = 1 to d.drop do
    unlink st st.head
  done;
  List.iter (fun blk -> ignore (grow_pool t st blk)) d.pulled;
  match d.pick with
  | None -> None
  | Some (Pool i) -> Some i
  | Some (Lazy blk) -> Some (grow_pool t st blk)

(* Routing rule.  Placing on a level with a free slot (some block below
   the current maximum usage, or a fresh lazy block) costs nothing NOW;
   otherwise λ must grow by μ.  A myopic Δ-loss comparison is a trap —
   it keeps feeding the cheap-per-bump but tiny-capacity x = 0 level —
   so bumps are compared by {e amortized} rate: loss added per λ-bump
   divided by the capacity a bump buys (exactly the quantity the offline
   DP trades on).  Levels with free slots win outright, lowest rate
   first, so slack in good levels is consumed before anyone bumps. *)
let routing_key t st =
  if not (usable st) then None
  else begin
    (* hist.(max_usage) counts the blocks sitting at the maximum; the
       level has a free slot unless every eligible block is there and no
       fresh block (usage 0) can be generated.  Blocked blocks sit at
       usage 0 in steady state, so the eligible pool is
       nblocks - nblocked. *)
    let saturated =
      st.max_usage = 0
      || (Option.is_none st.fresh
          && st.nblocks - st.nblocked = st.hist.(st.max_usage))
    in
    let needs_bump = if saturated then 1 else 0 in
    let cap_mu =
      if st.spec.Combo.cap_mu > 0 then st.spec.Combo.cap_mu
      else max 1 st.nblocks
    in
    (* Loss added by one λ-bump of μ. *)
    let bump = Combo.loss ~level:st.spec ~d:1 ~k:t.k ~s:t.s in
    let rate = float_of_int bump /. float_of_int cap_mu in
    Some (needs_bump, rate, st.live)
  end

(* The level whose routing key is smallest — the pure half of the
   destination choice, shared by {!route} and {!peek}. *)
let best_level t ~what =
  let best = ref None in
  Array.iteri
    (fun x st ->
      match routing_key t st with
      | None -> ()
      | Some key -> (
          match !best with
          | Some (key', _) when key' <= key -> ()
          | _ -> best := Some (key, x)))
    t.levels;
  match !best with
  | None -> invalid_arg (Printf.sprintf "Adaptive.%s: no usable level" what)
  | Some (_, x) -> x

(* Destination choice shared by {!add} and {!replace}: the level whose
   routing key is smallest, then a block within it. *)
let route t ~what =
  let x = best_level t ~what in
  let st = t.levels.(x) in
  match find_slot t st with
  | Some i -> (x, i)
  | None ->
      failwith
        (Printf.sprintf "Adaptive.%s: level reported usable but has no slot"
           what)

(* The replica set the next {!add} would be assigned: the same level
   fold and the same slot decision, uncommitted — so an advisory query
   ([advise create]) never perturbs where objects actually land. *)
let peek t =
  let x = best_level t ~what:"peek" in
  let st = t.levels.(x) in
  match (choose_slot t st).pick with
  | Some (Pool i) -> row t st i
  | Some (Lazy blk) -> Array.copy blk
  | None -> failwith "Adaptive.peek: level reported usable but has no slot"

let occupy t x block =
  let st = t.levels.(x) in
  let old = usage st block in
  st.cells.(block) <- st.cells.(block) + 1;
  hist_remove st old;
  hist_add st (old + 1);
  refresh st block;
  if usage st block < st.max_usage then push st block;
  st.live <- st.live + 1

let vacate t x block =
  let st = t.levels.(x) in
  let old = usage st block in
  st.cells.(block) <- st.cells.(block) - 1;
  hist_remove st old;
  hist_add st (old - 1);
  refresh st block;
  if usage st block < st.max_usage then push st block;
  st.live <- st.live - 1

let add t =
  let x, block = route t ~what:"add" in
  occupy t x block;
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.assignments id { level = x; block };
  id

let add_many t count = List.init count (fun _ -> add t)

let remove t id =
  match Hashtbl.find_opt t.assignments id with
  | None -> raise Not_found
  | Some { level; block } ->
      vacate t level block;
      Hashtbl.remove t.assignments id

let assignment t id =
  match Hashtbl.find_opt t.assignments id with
  | None -> raise Not_found
  | Some a -> a

let replica_set t id =
  let a = assignment t id in
  row t t.levels.(a.level) a.block

let level_of t id = (assignment t id).level

let replace t id =
  let a = assignment t id in
  (* Choose the destination before touching the old assignment, so a
     routing failure leaves the placement untouched.  The old block is
     blocked (that is why the object is being replaced), so the route
     can never hand it back. *)
  let x, block = route t ~what:"replace" in
  vacate t a.level a.block;
  occupy t x block;
  Hashtbl.replace t.assignments id { level = x; block }

(* The level's incidence by counting sort over [members]: count each
   node's entries, take prefix sums, then deal the blocks out in pool
   order, so each node's list is ascending. *)
let build_incidence t st =
  let len = st.nblocks * t.r in
  let start = plane (t.n + 1) 0 in
  for j = 0 to len - 1 do
    let nd = get st.members j + 1 in
    set start nd (get start nd + 1)
  done;
  for nd = 1 to t.n do
    set start nd (get start nd + get start (nd - 1))
  done;
  let cursor = Array.init t.n (get start) in
  let blocks = plane len 0 in
  for j = 0 to len - 1 do
    let nd = get st.members j in
    set blocks cursor.(nd) (j / t.r);
    cursor.(nd) <- cursor.(nd) + 1
  done;
  { start; blocks; built = st.nblocks }

(* The level's incidence, rebuilt when the pool has grown since. *)
let incidence t st =
  match st.incidence with
  | Some inc when inc.built = st.nblocks -> inc
  | Some _ | None ->
      let inc = build_incidence t st in
      st.incidence <- Some inc;
      inc

(* Every block holding [nd] gains ([delta] = 1) or loses ([delta] = -1)
   one retired member; a block whose count crosses between 0 and 1
   turns blocked or unblocked, and is refreshed. *)
let shift_blocked t nd delta =
  let edge = if delta > 0 then 1 else 0 and step = delta lsl blocked_shift in
  Array.iter
    (fun st ->
      let inc = incidence t st in
      for p = get inc.start nd to get inc.start (nd + 1) - 1 do
        let i = get inc.blocks p in
        st.cells.(i) <- st.cells.(i) + step;
        if blocked st i = edge then begin
          st.nblocked <- st.nblocked + delta;
          refresh st i
        end
      done)
    t.levels

(* Retire ([retired] = true) or rejoin a node; [fn] names the caller in
   the errors. *)
let set_retired t nd retired ~fn ~state =
  if nd < 0 || nd >= t.n then
    invalid_arg (Printf.sprintf "Adaptive.%s: node %d out of range" fn nd);
  if t.retired.(nd) = retired then
    invalid_arg (Printf.sprintf "Adaptive.%s: node %d %s" fn nd state);
  let delta = if retired then 1 else -1 in
  t.retired.(nd) <- retired;
  t.nretired <- t.nretired + delta;
  shift_blocked t nd delta

let retire_node t nd =
  set_retired t nd true ~fn:"retire_node" ~state:"is already retired"

let unretire_node t nd =
  set_retired t nd false ~fn:"unretire_node" ~state:"is not retired"

let lower_bound ?k t =
  let k = Option.value ~default:t.k k in
  let loss = ref 0 in
  Array.iter
    (fun st ->
      if effective_lambda st > 0 then
        loss := !loss + Combo.loss ~level:st.spec ~d:st.max_usage ~k ~s:t.s)
    t.levels;
  max 0 (size t - !loss)

let optimal_bound ?k t =
  let k = Option.value ~default:t.k k in
  let b = size t in
  if b = 0 then 0
  else begin
    let specs = Array.map (fun st -> st.spec) t.levels in
    let p = Params.make ~b ~r:t.r ~s:t.s ~n:t.n ~k in
    (Combo.optimize ~levels:specs p).Combo.lb
  end

let layout t =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.assignments [] in
  let ids = List.sort compare ids in
  let replicas = Array.of_list (List.map (fun id -> replica_set t id) ids) in
  Layout.make ~n:t.n ~r:t.r replicas

let check_invariants t =
  let ensure cond msg = if not cond then failwith ("Adaptive invariant: " ^ msg) in
  (* Recount usage from assignments. *)
  let recount = Array.map (fun st -> Array.make (max 1 st.nblocks) 0) t.levels in
  Hashtbl.iter
    (fun _ { level; block } ->
      recount.(level).(block) <- recount.(level).(block) + 1)
    t.assignments;
  let nretired = ref 0 in
  Array.iter (fun b -> if b then incr nretired) t.retired;
  ensure (t.nretired = !nretired) "retired count mismatch";
  Array.iteri
    (fun x st ->
      let live = ref 0 and maxu = ref 0 and nblocked = ref 0 in
      let listed = ref 0 in
      for i = 0 to st.nblocks - 1 do
        ensure (usage st i = recount.(x).(i)) "usage mismatch";
        let block = row t st i in
        ensure
          (Array.for_all (fun nd -> nd >= 0 && nd < t.n) block
          && Combin.Intset.is_sorted_distinct block)
          "block members out of range or repeated";
        ensure
          (blocked st i = blocked_count t.retired block)
          "blocked count mismatch";
        if blocked st i > 0 then begin
          incr nblocked;
          ensure (usage st i = 0) "blocked block still holds objects"
        end;
        if get st.prev i <> unlisted then incr listed;
        live := !live + usage st i;
        if usage st i > !maxu then maxu := usage st i
      done;
      ensure (st.live = !live) "live count mismatch";
      ensure (st.max_usage = !maxu) "max usage mismatch";
      ensure (st.nblocked = !nblocked) "blocked block tally mismatch";
      (* The min-index against a recount from usage and blocked. *)
      let key i = if blocked st i > 0 then max_int else usage st i in
      let nchunks = (st.nblocks + chunk - 1) / chunk in
      ensure
        (st.leaves >= max 1 nchunks
        && st.leaves land (st.leaves - 1) = 0
        && Array.length st.tree = 2 * st.leaves)
        "min-index shape";
      for c = 0 to st.leaves - 1 do
        let m = ref max_int in
        for i = c * chunk to min st.nblocks ((c + 1) * chunk) - 1 do
          m := min !m (key i)
        done;
        ensure (st.tree.(st.leaves + c) = !m) "min-index chunk minimum mismatch"
      done;
      for i = 1 to st.leaves - 1 do
        ensure
          (st.tree.(i) = min st.tree.(2 * i) st.tree.(2 * i + 1))
          "min-index node mismatch"
      done;
      let naive bound =
        let rec go i =
          if i >= st.nblocks then None
          else if key i < bound then Some i
          else go (i + 1)
        in
        go 0
      in
      List.iter
        (fun bound ->
          ensure (first_below st bound = naive bound)
            "min-index query mismatch")
        [ st.max_usage; max_int ];
      (* The open list: each step's back link names the block before it.
         A block has one back link, so a block reached twice fails here
         and the walk ends; reaching every block flagged as listed then
         means the list holds each of them once. *)
      let rec walk before i len =
        if i < 0 then len
        else begin
          ensure
            (i < st.nblocks && get st.prev i = before)
            "open list links disagree";
          walk i (get st.next i) (len + 1)
        end
      in
      ensure (walk (-1) st.head 0 = !listed) "open list misses a listed block";
      (* The incidence, when built: walking the blocks it covers in pool
         order, each member's cursor must meet exactly this block next,
         and every cursor must end at its node's end. *)
      Option.iter
        (fun inc ->
          ensure
            (inc.built = st.nblocks
            || (inc.built < st.nblocks && Option.is_some st.fresh))
            "incidence stale on a fixed level";
          ensure
            (get inc.start 0 = 0 && get inc.start t.n = t.r * inc.built)
            "incidence lengths do not sum to r·blocks";
          let cursor = Array.init t.n (get inc.start) in
          for i = 0 to inc.built - 1 do
            for j = 0 to t.r - 1 do
              let nd = get st.members ((t.r * i) + j) in
              ensure
                (cursor.(nd) < get inc.start (nd + 1)
                && get inc.blocks cursor.(nd) = i)
                "incidence misses a block through its node";
              cursor.(nd) <- cursor.(nd) + 1
            done
          done;
          for nd = 0 to t.n - 1 do
            ensure
              (cursor.(nd) = get inc.start (nd + 1))
              "incidence lists a block without its node"
          done)
        st.incidence)
    t.levels
