type incidence =
  | Unknown  (* not yet needed: only {!check} pays for the bitsets *)
  | Multiplicity
      (* some unit hosts an object more than once (e.g. a fault domain
         with two replicas of it): popcounts would undercount hits *)
  | Bitsets of Combin.Bitset.t array  (* object -> units hosting it *)

type hits_plane =
  (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  s : int;
  b : int;
  csr : Combin.Csr.t;  (* shared flat incidence: unit -> replicas *)
  inc : incidence ref;  (* lazy bitset cache, shared across copies *)
  hits : hits_plane;  (* per-object failed-replica counters *)
  failed : Combin.Bitset.t;
  mutable killed : int;
  mutable updates : int;
}

(* Built on first use: the incremental paths (add/remove/marginal and
   select_greedy) never touch the bitsets, so greedy-only callers skip
   the O(b·units/63) allocation entirely.  Duplicate detection is fused
   into the build — a second occurrence of (obj, u) sees its bit set.
   The cache cell is shared by every copy, so one build serves all
   branches of a search. *)
let incidence t =
  match !(t.inc) with
  | (Multiplicity | Bitsets _) as inc -> inc
  | Unknown ->
      let units = Combin.Csr.rows t.csr in
      let out = Array.init t.b (fun _ -> Combin.Bitset.create units) in
      let inc =
        try
          for u = 0 to units - 1 do
            Combin.Csr.iter_row t.csr u (fun obj ->
                if Combin.Bitset.mem out.(obj) u then raise Exit;
                Combin.Bitset.add out.(obj) u)
          done;
          Bitsets out
        with Exit -> Multiplicity
      in
      t.inc := inc;
      inc

let fresh_hits b =
  let h = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout b in
  Bigarray.Array1.fill h 0;
  h

let of_csr ~s csr =
  {
    s;
    b = Combin.Csr.cols csr;
    csr;
    inc = ref Unknown;
    hits = fresh_hits (Combin.Csr.cols csr);
    failed = Combin.Bitset.create (Combin.Csr.rows csr);
    (* s <= 0 kills every object unconditionally, matching
       Layout.failed_objects' >= s count. *)
    killed = (if s <= 0 then Combin.Csr.cols csr else 0);
    updates = 0;
  }

let of_groups ~s ~b groups = of_csr ~s (Combin.Csr.of_arrays ~cols:b groups)
let make layout ~s = of_csr ~s (Layout.incidence layout)

(* An exact duplicate of the current attack state: the counter plane is
   one blit, the incidence is shared untouched.  Copying an all-up
   kernel (the only use in-tree) therefore yields an all-up kernel, as
   the pre-CSR copy did. *)
let copy t =
  let hits = fresh_hits t.b in
  Bigarray.Array1.blit t.hits hits;
  { t with hits; failed = Combin.Bitset.copy t.failed; updates = 0 }

let reset t =
  Bigarray.Array1.fill t.hits 0;
  Combin.Bitset.clear t.failed;
  t.killed <- (if t.s <= 0 then t.b else 0)

let units t = Combin.Csr.rows t.csr
let objects t = t.b
let threshold t = t.s
let csr t = t.csr
let killed t = t.killed
let hits t obj = t.hits.{obj}
let failed_units t = Combin.Bitset.to_array t.failed
let updates t = t.updates

let check_unit t u name =
  if u < 0 || u >= units t then
    invalid_arg (Printf.sprintf "Kernel.%s: unit %d out of range" name u)

let degree t u =
  check_unit t u "degree";
  Combin.Csr.degree t.csr u

let add t u =
  check_unit t u "add";
  if Combin.Bitset.mem t.failed u then
    invalid_arg "Kernel.add: unit already failed";
  Combin.Bitset.add t.failed u;
  t.updates <- t.updates + 1;
  let hits = t.hits and s = t.s in
  let row = t.csr.Combin.Csr.row_ptr and ents = t.csr.Combin.Csr.entries in
  let lo = Bigarray.Array1.unsafe_get row u
  and hi = Bigarray.Array1.unsafe_get row (u + 1) in
  let killed = ref t.killed in
  for i = lo to hi - 1 do
    let obj = Bigarray.Array1.unsafe_get ents i in
    let h = Bigarray.Array1.unsafe_get hits obj + 1 in
    Bigarray.Array1.unsafe_set hits obj h;
    if h = s then incr killed
  done;
  t.killed <- !killed

let remove t u =
  check_unit t u "remove";
  if not (Combin.Bitset.mem t.failed u) then
    invalid_arg "Kernel.remove: unit not failed";
  Combin.Bitset.remove t.failed u;
  t.updates <- t.updates + 1;
  let hits = t.hits and s = t.s in
  let row = t.csr.Combin.Csr.row_ptr and ents = t.csr.Combin.Csr.entries in
  let lo = Bigarray.Array1.unsafe_get row u
  and hi = Bigarray.Array1.unsafe_get row (u + 1) in
  let killed = ref t.killed in
  for i = lo to hi - 1 do
    let obj = Bigarray.Array1.unsafe_get ents i in
    let h = Bigarray.Array1.unsafe_get hits obj in
    if h = s then decr killed;
    Bigarray.Array1.unsafe_set hits obj (h - 1)
  done;
  t.killed <- !killed

let marginal t u =
  check_unit t u "marginal";
  let newly = ref 0 and progress = ref 0 in
  let hits = t.hits and s = t.s in
  let row = t.csr.Combin.Csr.row_ptr and ents = t.csr.Combin.Csr.entries in
  let lo = Bigarray.Array1.unsafe_get row u
  and hi = Bigarray.Array1.unsafe_get row (u + 1) in
  for i = lo to hi - 1 do
    let h =
      Bigarray.Array1.unsafe_get hits (Bigarray.Array1.unsafe_get ents i)
    in
    if h + 1 = s then incr newly;
    if h < s then incr progress
  done;
  (!newly, !progress)

(* Multiplicity-bearing (or forced) evaluation: one scratch counter pass
   over the rows of the set.  O(b) scratch, one-shot callers only. *)
let scratch_count t set =
  let counts = Array.make t.b 0 in
  let dead = ref 0 in
  Array.iter
    (fun u ->
      Combin.Csr.iter_row t.csr u (fun obj ->
          let h = counts.(obj) + 1 in
          counts.(obj) <- h;
          if h = t.s then incr dead))
    set;
  !dead

let check_scratch t set =
  if not (Combin.Intset.is_sorted_distinct set) then
    invalid_arg "Kernel.check_scratch: unit set not sorted/distinct";
  if t.s <= 0 then t.b else scratch_count t set

let check t set =
  if not (Combin.Intset.is_sorted_distinct set) then
    invalid_arg "Kernel.check: unit set not sorted/distinct";
  if t.s <= 0 then t.b
  else
    match incidence t with
    | Bitsets obj_units ->
        (* Popcount-threshold over the per-object incidence bitsets. *)
        let fail = Combin.Bitset.of_array ~capacity:(units t) set in
        let dead = ref 0 in
        Array.iter
          (fun hosts ->
            if Combin.Bitset.inter_count hosts fail >= t.s then incr dead)
          obj_units;
        !dead
    | Unknown | Multiplicity -> scratch_count t set

(* ------------------------------------------------------------------ *)
(* CELF lazy-greedy selection.

   The scan objective is the pair (newly, progress), lexicographic,
   ties to the lowest unit id.  Pack it into one int,
   P(ne,pr) = ne·base + pr, so pair order = int order — provided base
   exceeds every reachable progress value.  Both components count
   *occurrences* in the unit's CSR row, so on a group kernel (fault
   domains holding up to r replicas per object) they range up to
   degree(u), which can exceed b (e.g. 2 datacenters with r = 3 give
   degree ≈ 1.5·b); b+1 is NOT a safe base there, hence base is derived
   from the largest row degree.  [newly] is not monotone under set
   growth (an object two short of s contributes 0 today and 1 after
   another hit), so a stale exact value is NOT a valid cache — but
   [progress] never grows (hits only increase while a unit stays
   unchosen), hence B(pr) = P(pr,pr) ≥ every future exact value of that
   unit.  The heap therefore stores progress-derived bounds only; each
   pop pays an exact O(load) re-check, and a round closes only when the
   best exact value seen cannot be beaten or tied-with-lower-id by any
   remaining bound.  (B = P forces newly = progress, so the tie test
   against a bound is exact.) *)

type greedy_stats = { evals : int; heap_pops : int; stale_reevals : int }

(* One selection round over [heap] against the counter state [st]: pop
   candidates while a remaining bound could beat or tie-with-lower-id
   the best exact value seen, then re-push every popped loser with a
   refreshed bound in ONE batch (Heap.Int_max.push_many) while the
   winner stays out.  The batch changes only heap internals — the heap
   order is total, so pops (and hence picks and stats) are identical to
   the one-push-per-loser formulation, minus its per-loser sift cost.
   Returns best_id = -1 on an empty heap (a shard may run dry; the
   drivers' callers guard against too many picks up front).

   Every comparison below is a lexicographic (newly, progress) pair
   comparison — valid for ANY packing base exceeding the largest
   reachable component.  {!Dyn.worst_case} packs its exact scores the
   same way, with its own base, and so ranks units identically. *)
let round_scan ~marginal heap ~packed =
  let best_key = ref (-1) and best_id = ref (-1) and best_pr = ref 0 in
  let evals = ref 0 and pops = ref 0 and stale = ref 0 in
  let cap = ref 16 and cnt = ref 0 and best_slot = ref (-1) in
  let lkeys = ref (Array.make 16 0) and lpays = ref (Array.make 16 0) in
  let record_popped key u =
    if !cnt = !cap then begin
      cap := 2 * !cap;
      let k2 = Array.make !cap 0 and p2 = Array.make !cap 0 in
      Array.blit !lkeys 0 k2 0 !cnt;
      Array.blit !lpays 0 p2 0 !cnt;
      lkeys := k2;
      lpays := p2
    end;
    !lkeys.(!cnt) <- key;
    !lpays.(!cnt) <- u;
    incr cnt
  in
  let stop = ref false in
  while not !stop do
    match Combin.Heap.Int_max.peek heap with
    | None -> stop := true
    | Some (key, u) ->
        (* Remaining exact values are ≤ key; they lose outright when
           key < best, and on key = best any exact tie sits at an id
           above [u] > [best_id], which the scan would also reject. *)
        if key < !best_key || (key = !best_key && u > !best_id) then
          stop := true
        else begin
          ignore (Combin.Heap.Int_max.pop heap);
          incr pops;
          let ne, pr = marginal u in
          incr evals;
          let exact = packed ne pr in
          if packed pr pr < key then incr stale;
          record_popped (packed pr pr) u;
          if exact > !best_key || (exact = !best_key && u < !best_id) then begin
            best_key := exact;
            best_id := u;
            best_pr := pr;
            best_slot := !cnt - 1
          end
        end
  done;
  (* Losers re-enter with refreshed bounds in one batch; the winner is
     swapped to the tail and withheld. *)
  if !best_slot >= 0 then begin
    let last = !cnt - 1 in
    !lkeys.(!best_slot) <- !lkeys.(last);
    !lpays.(!best_slot) <- !lpays.(last);
    cnt := last
  end;
  Combin.Heap.Int_max.push_many heap ~keys:!lkeys ~payloads:!lpays ~count:!cnt;
  (!best_key, !best_id, !best_pr, !evals, !pops, !stale)

(* ------------------------------------------------------------------ *)
(* The CELF driver.  Unit ids are cut into contiguous shards, each with
   its own bound heap; per pick every shard produces its exact-checked
   local argmax (in parallel over [pool] when there are several shards)
   and the reduce applies the global (packed value desc, unit id asc)
   order.  The winner is the lowest id attaining the global exact
   maximum — a full rescan's own choice — so picks do not depend on the
   shard count or the pool.  The statistics do depend on the shard
   count (which candidates a round pops depends on which units share a
   heap), but the shard count is a pure function of the unit count,
   never of the pool, so the Stable telemetry stays -j-invariant; see
   DESIGN.md §11.  One shard is the classic single-heap CELF: the same
   loop, not a separate path.

   All shards read the caller's ONE counter state: within a round
   [marginal] is read-only (a shard mutates only its own heap), and the
   winner's [apply] lands on the calling domain between rounds — so
   rounds are data-race free and the hits plane stays a single
   cache-resident copy instead of a per-shard mirror (which costs ~2×
   wall on b ~ 10^6 planes from the extra memory traffic alone). *)

type shard = {
  heap : Combin.Heap.Int_max.t;
  lo : int;
  hi : int;  (* owned unit ids: [lo, hi) *)
  mutable filled : bool;
  mutable held : int;  (* local best withheld from the heap; -1 = none *)
  mutable held_pr : int;  (* its progress at the exact eval, a valid bound *)
  mutable s_evals : int;
  mutable s_pops : int;
  mutable s_stale : int;
}

(* ~512 units per shard: small enough that a 10^4-node instance spreads
   over ~20 shards, large enough that a shard amortizes its batch
   dispatch; capped so shard state stays bounded.  Must stay a pure
   function of [units] — see above. *)
let default_shards units = min 64 (max 1 (units / 512))

(* A lone shard runs on the calling domain: a pool batch would buy no
   parallelism and only move the pool's own counters. *)
let pmap pool f xs =
  match pool with
  | Some p when Array.length xs > 1 -> Engine.Pool.parallel_map p f xs
  | _ -> Array.map f xs

(* [marginal] scores a unit against the counter state, [apply] fails
   the round's winner in it, [chosen] marks units already failed (never
   candidates); [base] packs the pair as in round_scan. *)
let celf ~pool ~heap ~shards:nshards ~units:n ~base ~marginal ~apply ~chosen
    ~picks =
  let packed ne pr = (ne * base) + pr in
  let shards =
    Array.init nshards (fun i ->
        let heap =
          (* A caller-owned heap is cleared and refilled: the pop order
             is a strict total order on (key, payload), so reuse changes
             no pick and no statistic — it only skips the allocation. *)
          match heap with
          | Some h when i = 0 ->
              Combin.Heap.Int_max.clear h;
              h
          | _ -> Combin.Heap.Int_max.create ()
        in
        {
          heap;
          lo = i * n / nshards;
          hi = (i + 1) * n / nshards;
          filled = false;
          held = -1;
          held_pr = 0;
          s_evals = 0;
          s_pops = 0;
          s_stale = 0;
        })
  in
  let round pending sh =
    (* A held local best that lost the previous global reduce re-enters
       with its (still valid) refreshed bound. *)
    if sh.held >= 0 && sh.held <> pending then
      Combin.Heap.Int_max.push sh.heap ~key:(packed sh.held_pr sh.held_pr)
        sh.held;
    sh.held <- -1;
    if not sh.filled then begin
      (* Deferred initial fill: the O(units·load) bound pass is the bulk
         of a greedy run, so it rides the first parallel round. *)
      sh.filled <- true;
      for u = sh.lo to sh.hi - 1 do
        if not (chosen u) then begin
          let _, pr = marginal u in
          sh.s_evals <- sh.s_evals + 1;
          Combin.Heap.Int_max.push sh.heap ~key:(packed pr pr) u
        end
      done
    end;
    let best_key, best_id, best_pr, e, p, st =
      round_scan ~marginal sh.heap ~packed
    in
    sh.s_evals <- sh.s_evals + e;
    sh.s_pops <- sh.s_pops + p;
    sh.s_stale <- sh.s_stale + st;
    if best_id >= 0 then begin
      sh.held <- best_id;
      sh.held_pr <- best_pr
    end;
    (best_key, best_id)
  in
  let out = Array.make picks 0 in
  let pending = ref (-1) in
  for pick = 0 to picks - 1 do
    (* The previous winner's damage lands once, here, on the calling
       domain: the in-flight round then only reads the counter state. *)
    if !pending >= 0 then apply !pending;
    let results = pmap pool (round !pending) shards in
    (* Reduce: greatest exact value, ties to the lowest unit id. *)
    let bk = ref (-1) and bid = ref (-1) in
    Array.iter
      (fun (key, id) ->
        if id >= 0 && (key > !bk || (key = !bk && id < !bid)) then begin
          bk := key;
          bid := id
        end)
      results;
    out.(pick) <- !bid;
    pending := !bid
  done;
  if !pending >= 0 then apply !pending;
  let evals = ref 0 and pops = ref 0 and stale = ref 0 in
  Array.iter
    (fun sh ->
      evals := !evals + sh.s_evals;
      pops := !pops + sh.s_pops;
      stale := !stale + sh.s_stale)
    shards;
  (out, { evals = !evals; heap_pops = !pops; stale_reevals = !stale })

let select_greedy ?pool ?heap ?shards t ~picks =
  let n = units t in
  if picks > n - Combin.Bitset.count t.failed then
    invalid_arg "Kernel.select_greedy: more picks than unchosen units";
  let shards =
    match shards with Some s -> max 1 s | None -> default_shards n
  in
  celf ~pool ~heap ~shards ~units:n
    ~base:(1 + Combin.Csr.max_degree t.csr)
    ~marginal:(marginal t) ~apply:(add t)
    ~chosen:(Combin.Bitset.mem t.failed) ~picks

(* ------------------------------------------------------------------ *)
(* Dynamic kernel: the object population itself churns. *)

type kernel = t

module Dyn = struct
  (* The flat kernel's CSR is immutable — the right trade for one-shot
     attacks, the wrong one for a churn engine that creates and deletes
     objects every event.  Dyn keeps the same split of state (per-object
     hit counters + failed bitset + dead tally) but stores the unit →
     objects incidence as per-unit rows grown in amortized-doubling
     blocks, with per-object back-pointers so a delete detaches all r
     entries by swap-remove in O(r).  Object slots stay dense: the last
     slot moves into a freed one (callers track the move via
     {!remove_object}'s return), so the hits plane never fragments.

     Worst case: {!worst_case} applies [select_greedy]'s rule (exact
     (newly, progress), ties to the lowest id) without CELF, whose
     progress bound counts every live replica as a kill and so, for
     s ≥ 2, prunes almost nothing: a full rescan per pick.  It keeps
     every unit's pair exact instead, patching per pick only the hosts
     of the objects that pick brings to s-1 or s hits. *)

  type nonrec t = {
    s : int;
    units : int;
    mutable b : int;  (* live objects, dense slots [0, b) *)
    mutable cap : int;  (* slot capacity of the planes below *)
    mutable hits : hits_plane;
    mutable obj_units : int array array;  (* slot -> hosting units *)
    mutable pos : int array array;  (* slot -> entry index in rows.(u) *)
    rows : int array array;  (* unit -> live slots, length row_len.(u) *)
    row_len : int array;
    failed : Combin.Bitset.t;
    mutable nfailed : int;  (* |failed| *)
    mutable killed : int;
    mutable max_degree : int;  (* monotone row-length high-water mark *)
    mutable moves : int;  (* lifetime object add/remove count *)
    (* worst_case scratch, all-up between queries: *)
    mutable plane : hits_plane;  (* slot -> hits of the picks so far *)
    score : int array;  (* unit -> newly·base + progress *)
    chosen : Bytes.t;  (* unit -> '\001' once picked *)
  }

  let create ~units ~s =
    if units < 0 then invalid_arg "Kernel.Dyn.create: negative unit count";
    if s < 1 then invalid_arg "Kernel.Dyn.create: threshold s must be >= 1";
    {
      s;
      units;
      b = 0;
      cap = 0;
      hits = fresh_hits 0;
      obj_units = [||];
      pos = [||];
      rows = Array.make units [||];
      row_len = Array.make units 0;
      failed = Combin.Bitset.create units;
      nfailed = 0;
      killed = 0;
      max_degree = 0;
      moves = 0;
      plane = fresh_hits 0;
      score = Array.make units 0;
      chosen = Bytes.make units '\000';
    }

  let units t = t.units
  let objects t = t.b
  let threshold t = t.s
  let killed t = t.killed
  let hits t slot = t.hits.{slot}
  let failed_units t = Combin.Bitset.to_array t.failed
  let failed_count t = t.nfailed
  let moves t = t.moves
  let replicas t slot = Array.copy t.obj_units.(slot)

  let ensure_slot_capacity t =
    if t.b = t.cap then begin
      let cap = max 16 (2 * t.cap) in
      let hits = fresh_hits cap in
      Bigarray.Array1.blit t.hits (Bigarray.Array1.sub hits 0 t.cap);
      let obj_units = Array.make cap [||] in
      Array.blit t.obj_units 0 obj_units 0 t.b;
      let pos = Array.make cap [||] in
      Array.blit t.pos 0 pos 0 t.b;
      t.hits <- hits;
      t.obj_units <- obj_units;
      t.pos <- pos;
      t.plane <- fresh_hits cap;
      t.cap <- cap
    end

  (* Append [slot] to unit [u]'s row, doubling the block when full;
     returns the entry index (the back-pointer remove_object needs). *)
  let row_push t u slot =
    let len = t.row_len.(u) in
    let row = t.rows.(u) in
    let row =
      if len = Array.length row then begin
        let grown = Array.make (max 8 (2 * len)) 0 in
        Array.blit row 0 grown 0 len;
        t.rows.(u) <- grown;
        grown
      end
      else row
    in
    row.(len) <- slot;
    t.row_len.(u) <- len + 1;
    if len + 1 > t.max_degree then t.max_degree <- len + 1;
    len

  let add_object t units_arr =
    Array.iteri
      (fun i u ->
        if u < 0 || u >= t.units then
          invalid_arg "Kernel.Dyn.add_object: unit out of range";
        for j = 0 to i - 1 do
          if units_arr.(j) = u then
            invalid_arg "Kernel.Dyn.add_object: duplicate unit"
        done)
      units_arr;
    ensure_slot_capacity t;
    let slot = t.b in
    t.b <- slot + 1;
    let deg = Array.length units_arr in
    t.obj_units.(slot) <- Array.copy units_arr;
    let pos = Array.make deg 0 in
    let h = ref 0 in
    Array.iteri
      (fun i u ->
        pos.(i) <- row_push t u slot;
        if Combin.Bitset.mem t.failed u then incr h)
      units_arr;
    t.pos.(slot) <- pos;
    t.hits.{slot} <- !h;
    if !h >= t.s then t.killed <- t.killed + 1;
    t.moves <- t.moves + 1;
    slot

  (* The swap-remove in unit [u]'s row moved object [moved]'s entry from
     index [from] to [to_]; repair its back-pointer.  [moved]'s units
     are distinct, so exactly one of its entries lives in [u]'s row. *)
  let fix_pos t moved u ~from ~to_ =
    let ous = t.obj_units.(moved) and ps = t.pos.(moved) in
    let n = Array.length ous in
    let i = ref 0 in
    while !i < n && not (ous.(!i) = u && ps.(!i) = from) do incr i done;
    if !i = n then failwith "Kernel.Dyn: incidence back-pointer out of sync";
    ps.(!i) <- to_

  let remove_object t slot =
    if slot < 0 || slot >= t.b then
      invalid_arg "Kernel.Dyn.remove_object: object slot out of range";
    if t.hits.{slot} >= t.s then t.killed <- t.killed - 1;
    (* Detach every row entry by swap-remove. *)
    let ous = t.obj_units.(slot) and ps = t.pos.(slot) in
    Array.iteri
      (fun i u ->
        let p = ps.(i) in
        let last = t.row_len.(u) - 1 in
        let row = t.rows.(u) in
        let moved = row.(last) in
        row.(p) <- moved;
        t.row_len.(u) <- last;
        if p <> last then fix_pos t moved u ~from:last ~to_:p)
      ous;
    (* Keep slots dense: the last object moves into the freed slot. *)
    let lastslot = t.b - 1 in
    if slot <> lastslot then begin
      t.hits.{slot} <- t.hits.{lastslot};
      t.obj_units.(slot) <- t.obj_units.(lastslot);
      t.pos.(slot) <- t.pos.(lastslot);
      Array.iteri
        (fun i u -> t.rows.(u).(t.pos.(slot).(i)) <- slot)
        t.obj_units.(slot)
    end;
    t.obj_units.(lastslot) <- [||];
    t.pos.(lastslot) <- [||];
    t.b <- lastslot;
    t.moves <- t.moves + 1;
    lastslot

  let check_unit t u name =
    if u < 0 || u >= t.units then
      invalid_arg (Printf.sprintf "Kernel.Dyn.%s: unit %d out of range" name u)

  let fail_unit t u =
    check_unit t u "fail_unit";
    if Combin.Bitset.mem t.failed u then
      invalid_arg "Kernel.Dyn.fail_unit: unit already failed";
    Combin.Bitset.add t.failed u;
    t.nfailed <- t.nfailed + 1;
    let row = t.rows.(u) and s = t.s in
    for i = 0 to t.row_len.(u) - 1 do
      let slot = Array.unsafe_get row i in
      let h = t.hits.{slot} + 1 in
      t.hits.{slot} <- h;
      if h = s then t.killed <- t.killed + 1
    done

  let recover_unit t u =
    check_unit t u "recover_unit";
    if not (Combin.Bitset.mem t.failed u) then
      invalid_arg "Kernel.Dyn.recover_unit: unit not failed";
    Combin.Bitset.remove t.failed u;
    t.nfailed <- t.nfailed - 1;
    let row = t.rows.(u) and s = t.s in
    for i = 0 to t.row_len.(u) - 1 do
      let slot = Array.unsafe_get row i in
      let h = t.hits.{slot} in
      if h = s then t.killed <- t.killed - 1;
      t.hits.{slot} <- h - 1
    done

  let load t u =
    check_unit t u "load";
    t.row_len.(u)

  let failed t u =
    check_unit t u "failed";
    Combin.Bitset.mem t.failed u

  let row t u =
    check_unit t u "row";
    Array.sub t.rows.(u) 0 t.row_len.(u)

  let marginal t u =
    check_unit t u "marginal";
    let newly = ref 0 and progress = ref 0 in
    let row = t.rows.(u) and s = t.s in
    for i = 0 to t.row_len.(u) - 1 do
      let h = t.hits.{Array.unsafe_get row i} in
      if h + 1 = s then incr newly;
      if h < s then incr progress
    done;
    (!newly, !progress)

  (* The from-scratch oracle: recount every object's hits straight from
     its replica list and the failed bitset, verifying the incremental
     plane on the way.  O(b·r); tests and gates only. *)
  let check_scratch t =
    let dead = ref 0 in
    for slot = 0 to t.b - 1 do
      let h = ref 0 in
      Array.iter
        (fun u -> if Combin.Bitset.mem t.failed u then incr h)
        t.obj_units.(slot);
      if !h <> t.hits.{slot} then
        failwith "Kernel.Dyn: hits plane out of sync with the incidence";
      if !h >= t.s then incr dead
    done;
    !dead

  (* Pack the live rows into a flat kernel and replay the failure set:
     the from-scratch arm of the incremental ≡ scratch equivalence. *)
  let freeze t =
    let groups =
      Array.init t.units (fun u -> Array.sub t.rows.(u) 0 t.row_len.(u))
    in
    let kn = of_groups ~s:t.s ~b:t.b groups in
    Array.iter (fun u -> add kn u) (Combin.Bitset.to_array t.failed);
    kn

  let worst_case t ~k =
    if k < 0 || k > t.units then
      invalid_arg "Kernel.Dyn.worst_case: more picks than units";
    (* Exact scores packed as in round_scan: base exceeds every row
       length, so int order is (newly, progress) order.  All-up, every
       row entry is progress, and newly only when one hit kills. *)
    let s = t.s and base = 1 + t.max_degree in
    let plane = t.plane and score = t.score and chosen = t.chosen in
    for u = 0 to t.units - 1 do
      let len = t.row_len.(u) in
      score.(u) <- (if s = 1 then len * base else 0) + len
    done;
    let picks = Array.make k 0 in
    let dead = ref 0 and updates = ref 0 in
    for pick = 0 to k - 1 do
      (* Argmax over the unchosen units, ties to the lowest id. *)
      let best = ref (-1) and best_key = ref (-1) in
      for u = 0 to t.units - 1 do
        let key = Array.unsafe_get score u in
        if key > !best_key && Bytes.unsafe_get chosen u = '\000' then begin
          best := u;
          best_key := key
        end
      done;
      let u = !best in
      picks.(pick) <- u;
      Bytes.unsafe_set chosen u '\001';
      (* An entry whose hit count reaches s-1 becomes newly for all its
         hosts; one that reaches s leaves both components. *)
      let row = t.rows.(u) in
      for i = 0 to t.row_len.(u) - 1 do
        let slot = Array.unsafe_get row i in
        let h = plane.{slot} + 1 in
        plane.{slot} <- h;
        let delta =
          if h = s - 1 then base else if h = s then -(base + 1) else 0
        in
        if delta <> 0 then begin
          if h = s then incr dead;
          let hosts = t.obj_units.(slot) in
          for j = 0 to Array.length hosts - 1 do
            let v = Array.unsafe_get hosts j in
            Array.unsafe_set score v (Array.unsafe_get score v + delta)
          done;
          updates := !updates + Array.length hosts
        end
      done
    done;
    (* Back to all-up: the picked rows cover every hit slot. *)
    for pick = 0 to k - 1 do
      let u = picks.(pick) in
      Bytes.unsafe_set chosen u '\000';
      let row = t.rows.(u) in
      for i = 0 to t.row_len.(u) - 1 do
        plane.{Array.unsafe_get row i} <- 0
      done
    done;
    (picks, !dead, !updates)
end
