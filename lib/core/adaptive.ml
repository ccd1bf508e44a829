(* Per-level state.  Blocks live in a growable pool: fixed designs are
   materialized up front; the complete (x = r-1) level appends fresh
   lexicographic r-subsets on demand.  [usage] counts live objects per
   block; [hist] is a histogram of usages so the maximum (and hence the
   effective λ) is maintained under both adds and removes.

   Node retirement (permanent leave): a block containing a retired node
   is BLOCKED — never routed to — and the churn engine immediately
   re-places every object assigned to it, so outside that transient a
   blocked block always has usage 0.  [blocked] counts retired members
   per block (a node may rejoin, unblocking blocks that contain no other
   retired node); [nblocked] is the number of blocked blocks, so the
   eligible pool size is nblocks - nblocked.  Since blocked blocks sit
   at usage 0 in steady state, the usage histogram (which only tracks
   usage >= 1) and hence the effective λ accounting are untouched. *)
type level_state = {
  spec : Combo.level;
  mutable blocks : int array array;  (* pool, grows for the lazy level *)
  mutable nblocks : int;
  mutable usage : int array;
  mutable hist : int array;  (* hist.(u) = #blocks with usage u, u >= 1 *)
  mutable max_usage : int;
  mutable live : int;  (* objects at this level *)
  mutable open_blocks : int list;  (* candidates with usage < max_usage *)
  mutable blocked : int array;  (* retired member nodes per block *)
  mutable nblocked : int;  (* blocks with blocked > 0 *)
  fresh : int array Seq.t ref option;
      (* lazy block source; a persistent Seq (not a closure) so
         {!choose_slot} can walk the upcoming blocks without consuming
         them *)
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

let block_blocked st i = st.blocked.(i) > 0

let blocked_count retired block =
  Array.fold_left (fun acc nd -> if retired.(nd) then acc + 1 else acc) 0 block

(* The lowest-index pool block that is not blocked and satisfies [pred]. *)
let scan_eligible st pred =
  let found = ref None in
  (try
     for i = 0 to st.nblocks - 1 do
       if (not (block_blocked st i)) && pred i then begin
         found := Some i;
         raise Exit
       end
     done
   with Exit -> ());
  !found

let grow_pool t st block =
  if st.nblocks = Array.length st.blocks then begin
    let cap = max 8 (2 * Array.length st.blocks) in
    let blocks = Array.make cap [||] in
    Array.blit st.blocks 0 blocks 0 st.nblocks;
    let usage = Array.make cap 0 in
    Array.blit st.usage 0 usage 0 st.nblocks;
    let blocked = Array.make cap 0 in
    Array.blit st.blocked 0 blocked 0 st.nblocks;
    st.blocks <- blocks;
    st.usage <- usage;
    st.blocked <- blocked
  end;
  st.blocks.(st.nblocks) <- block;
  let bc = blocked_count t.retired block in
  st.blocked.(st.nblocks) <- bc;
  if bc > 0 then st.nblocked <- st.nblocked + 1;
  st.nblocks <- st.nblocks + 1;
  st.nblocks - 1

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

let make_level ~n (spec : Combo.level) =
  let fixed_blocks, fresh =
    match spec.Combo.entry with
    | Some e when e.Designs.Registry.strength = e.Designs.Registry.block_size ->
        (* Complete level: stream r-subsets of the v points lazily. *)
        ( [||],
          Some
            (ref
               (Designs.Trivial.subsets_seq ~v:e.Designs.Registry.v
                  ~r:e.Designs.Registry.block_size)) )
    | Some e when Designs.Registry.is_materialized e ->
        ((Designs.Registry.materialize e).Designs.Block_design.blocks, None)
    | Some _ | None -> ([||], None)
  in
  ignore n;
  {
    spec;
    blocks = Array.map Array.copy fixed_blocks;
    nblocks = Array.length fixed_blocks;
    usage = Array.make (max 1 (Array.length fixed_blocks)) 0;
    hist = Array.make 4 0;
    max_usage = 0;
    live = 0;
    open_blocks = [];
    blocked = Array.make (max 1 (Array.length fixed_blocks)) 0;
    nblocked = 0;
    fresh;
  }

let usable st = st.nblocks - st.nblocked > 0 || Option.is_some st.fresh

let create ?levels ~n ~r ~s ~k () =
  let specs =
    match levels with
    | Some l -> l
    | None -> Combo.default_levels ~n ~r ~s ()
  in
  let levels = Array.map (make_level ~n) specs in
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
  hints : int list;  (* open_blocks after the pick *)
  pulled : int array list;
      (* blocked lazy blocks passed over on the way, in pull order; they
         still enter the pool (and unblock if their retired node
         rejoins) *)
  rest : int array Seq.t;  (* the lazy source after the pick *)
}

(* Decision order: when the level is empty, the first eligible pool
   block, else the lazy source.  Otherwise the first open hint still
   below the maximum usage (stale hints are dropped), else a fresh lazy
   block (usage 0 < max), else a rescan for a block below the maximum
   (the hints may have gone stale), else — the level is saturated at
   the current λ and growing λ by μ means — any eligible block.
   Blocked blocks (containing a retired node) are skipped everywhere. *)
let choose_slot t st =
  let src = match st.fresh with Some src -> !src | None -> Seq.empty in
  let below_max i = st.usage.(i) < st.max_usage in
  let pool hints i = { pick = Some (Pool i); hints; pulled = []; rest = src } in
  let from_lazy hints =
    let rec go pulled s =
      match Seq.uncons s with
      | None -> { pick = None; hints; pulled = List.rev pulled; rest = s }
      | Some (blk, rest) ->
          if blocked_count t.retired blk > 0 then go (blk :: pulled) rest
          else { pick = Some (Lazy blk); hints; pulled = List.rev pulled; rest }
    in
    go [] src
  in
  if st.max_usage = 0 then
    match scan_eligible st (fun _ -> true) with
    | Some i -> pool st.open_blocks i
    | None -> from_lazy st.open_blocks
  else
    let rec open_hint = function
      | i :: rest ->
          if below_max i && not (block_blocked st i) then Some (i, rest)
          else open_hint rest
      | [] -> None
    in
    match open_hint st.open_blocks with
    | Some (i, hints) -> pool hints i
    | None ->
        let d = from_lazy [] in
        if Option.is_some d.pick then d
        else
          let rescan =
            match scan_eligible st below_max with
            | Some _ as found -> found
            | None -> scan_eligible st (fun _ -> true)
          in
          { d with pick = Option.map (fun i -> Pool i) rescan }

let find_slot t st =
  let d = choose_slot t st in
  Option.iter (fun src -> src := d.rest) st.fresh;
  st.open_blocks <- d.hints;
  List.iter (fun blk -> ignore (grow_pool t st blk)) d.pulled;
  match d.pick with
  | None -> None
  | Some (Pool i) -> Some i
  | Some (Lazy blk) -> Some (grow_pool t st blk)

(* Marginal increase of the total loss bound if one object lands on level
   x.  λ grows by μ only when the level has no open slot. *)
let loss_term t (st : level_state) lambda =
  lambda
  * Combin.Binomial.exact t.k (st.spec.Combo.x + 1)
  / Combin.Binomial.exact t.s (st.spec.Combo.x + 1)

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
    let rate =
      float_of_int (loss_term t st st.spec.Combo.mu) /. float_of_int cap_mu
    in
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
  | Some (Pool i) -> Array.copy st.blocks.(i)
  | Some (Lazy blk) -> Array.copy blk
  | None -> failwith "Adaptive.peek: level reported usable but has no slot"

let occupy t x block =
  let st = t.levels.(x) in
  let old = st.usage.(block) in
  st.usage.(block) <- old + 1;
  hist_remove st old;
  hist_add st (old + 1);
  if st.usage.(block) < st.max_usage then
    st.open_blocks <- block :: st.open_blocks;
  st.live <- st.live + 1

let vacate t x block =
  let st = t.levels.(x) in
  let old = st.usage.(block) in
  st.usage.(block) <- old - 1;
  hist_remove st old;
  hist_add st (old - 1);
  if st.usage.(block) < st.max_usage then
    st.open_blocks <- block :: st.open_blocks;
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
  Array.copy t.levels.(a.level).blocks.(a.block)

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

let retire_node t nd =
  if nd < 0 || nd >= t.n then
    invalid_arg (Printf.sprintf "Adaptive.retire_node: node %d out of range" nd);
  if t.retired.(nd) then
    invalid_arg
      (Printf.sprintf "Adaptive.retire_node: node %d is already retired" nd);
  t.retired.(nd) <- true;
  t.nretired <- t.nretired + 1;
  Array.iter
    (fun st ->
      for i = 0 to st.nblocks - 1 do
        if Array.exists (fun m -> m = nd) st.blocks.(i) then begin
          if st.blocked.(i) = 0 then st.nblocked <- st.nblocked + 1;
          st.blocked.(i) <- st.blocked.(i) + 1
        end
      done)
    t.levels

let unretire_node t nd =
  if nd < 0 || nd >= t.n then
    invalid_arg
      (Printf.sprintf "Adaptive.unretire_node: node %d out of range" nd);
  if not t.retired.(nd) then
    invalid_arg
      (Printf.sprintf "Adaptive.unretire_node: node %d is not retired" nd);
  t.retired.(nd) <- false;
  t.nretired <- t.nretired - 1;
  Array.iter
    (fun st ->
      for i = 0 to st.nblocks - 1 do
        if Array.exists (fun m -> m = nd) st.blocks.(i) then begin
          st.blocked.(i) <- st.blocked.(i) - 1;
          if st.blocked.(i) = 0 then st.nblocked <- st.nblocked - 1
        end
      done)
    t.levels

let lower_bound ?k t =
  let k = Option.value ~default:t.k k in
  let loss = ref 0 in
  Array.iter
    (fun st ->
      let lambda = effective_lambda st in
      if lambda > 0 then
        loss :=
          !loss
          + lambda
            * Combin.Binomial.exact k (st.spec.Combo.x + 1)
            / Combin.Binomial.exact t.s (st.spec.Combo.x + 1))
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
      for i = 0 to st.nblocks - 1 do
        ensure (st.usage.(i) = recount.(x).(i)) "usage mismatch";
        ensure
          (st.blocked.(i) = blocked_count t.retired st.blocks.(i))
          "blocked count mismatch";
        if st.blocked.(i) > 0 then begin
          incr nblocked;
          ensure (st.usage.(i) = 0) "blocked block still holds objects"
        end;
        live := !live + st.usage.(i);
        if st.usage.(i) > !maxu then maxu := st.usage.(i)
      done;
      ensure (st.live = !live) "live count mismatch";
      ensure (st.max_usage = !maxu) "max usage mismatch";
      ensure (st.nblocked = !nblocked) "blocked block tally mismatch")
    t.levels;
  (* The layout must satisfy Definition 2 per level at the effective λ:
     spot-checked via the per-level usage bound already; full check left
     to the test suite on small instances. *)
  ()
