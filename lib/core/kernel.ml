type hits_plane =
  (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  s : int;
  b : int;
  csr : Combin.Csr.t;  (* shared flat incidence: unit -> replicas *)
  hosts : int array array;  (* shared: object -> host entries *)
  unit_of : int array;  (* shared: host entry -> unit, -1 = none *)
  hits : hits_plane;  (* per-object failed-replica counters *)
  failed : Combin.Bitset.t;
  mutable killed : int;
  mutable updates : int;
}

let fresh_hits b =
  let h = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout b in
  Bigarray.Array1.fill h 0;
  h

(* [hosts] is the transpose of [csr] read through [unit_of]: every
   occurrence of an object in a unit's row is one host entry of that
   object mapping to the unit, so a unit holding several replicas of an
   object is listed once per replica. *)
let build ~s csr ~hosts ~unit_of =
  {
    s;
    b = Combin.Csr.cols csr;
    csr;
    hosts;
    unit_of;
    hits = fresh_hits (Combin.Csr.cols csr);
    failed = Combin.Bitset.create (Combin.Csr.rows csr);
    (* s <= 0 kills every object unconditionally, matching
       Layout.failed_objects' >= s count. *)
    killed = (if s <= 0 then Combin.Csr.cols csr else 0);
    updates = 0;
  }

let of_groups ~s ~b groups =
  let csr = Combin.Csr.of_arrays ~cols:b groups in
  let counts = Array.make b 0 in
  Array.iter (Array.iter (fun obj -> counts.(obj) <- counts.(obj) + 1)) groups;
  let hosts = Array.map (fun c -> Array.make c 0) counts in
  Array.fill counts 0 b 0;
  Array.iteri
    (fun u row ->
      Array.iter
        (fun obj ->
          hosts.(obj).(counts.(obj)) <- u;
          counts.(obj) <- counts.(obj) + 1)
        row)
    groups;
  build ~s csr ~hosts ~unit_of:(Array.init (Array.length groups) Fun.id)

(* Node kernels read the layout's replica table as their object → hosts
   index; domain kernels read it through a node → domain map, so
   neither allocates a transpose. *)
let make ?domains layout ~s =
  let n = layout.Layout.n and hosts = layout.Layout.replicas in
  match domains with
  | None ->
      build ~s (Layout.incidence layout) ~hosts
        ~unit_of:(Array.init n Fun.id)
  | Some members ->
      let csr = Combin.Csr.group (Layout.incidence layout) members in
      let unit_of = Array.make n (-1) in
      Array.iteri
        (fun d ms ->
          Array.iter
            (fun nd ->
              if unit_of.(nd) >= 0 then
                invalid_arg "Kernel.make: a node belongs to two domains";
              unit_of.(nd) <- d)
            ms)
        members;
      build ~s csr ~hosts ~unit_of

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

(* One scratch counter pass over the rows of the set: O(b) scratch,
   one-shot callers only. *)
let check t set =
  if not (Combin.Intset.is_sorted_distinct set) then
    invalid_arg "Kernel.check: unit set not sorted/distinct";
  if t.s <= 0 then t.b
  else begin
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
  end

(* ------------------------------------------------------------------ *)
(* Exact-score greedy selection, shared by {!select_greedy} and
   {!Dyn.worst_case}.

   The objective is the pair (newly, progress), lexicographic, ties to
   the lowest unit id.  Each unit's pair is kept exact, packed into one
   int P = newly·base + progress, so pair order = int order provided
   base exceeds every reachable progress value.  Both components count
   *occurrences* in the unit's row, so on a group kernel (fault domains
   holding up to r replicas per object) they range up to the row
   length, which can exceed b (2 datacenters with r = 3 give degree
   ≈ 1.5·b); hence base = 1 + the largest row length, never b+1.

   An occurrence of an object with h hits contributes
   f(h) = [h+1 = s]·base + [h < s].  When a pick raises an object from
   h-1 to h hits, every host occurrence of that object changes by
   f(h) − f(h-1): +base at h = s-1 (it turns newly), −(base+1) at h = s
   (it leaves both components), 0 otherwise.  A pick therefore patches
   only the hosts of the objects it brings to s-1 or s hits, and each
   selection is one linear argmax over the unchosen units. *)

(* Inlined: it runs once per row entry of every pick. *)
let[@inline] score_delta ~s ~base h =
  if h = s - 1 then base else if h = s then -(base + 1) else 0

(* The unchosen unit with the greatest score, ties to the lowest id.
   Scores of unchosen units are exact, hence >= 0; at least one unit
   must be unchosen. *)
let argmax score chosen =
  let best = ref (-1) and best_key = ref (-1) in
  for u = 0 to Array.length score - 1 do
    let key = Array.unsafe_get score u in
    if key > !best_key && Bytes.unsafe_get chosen u = '\000' then begin
      best := u;
      best_key := key
    end
  done;
  !best

(* Seeded from [marginal], so the greedy extends whatever failure set
   the kernel holds (the B&B probes start mid-search); each pick is
   applied to the kernel's own counters exactly as {!add} would. *)
let select_greedy t ~picks =
  let n = units t in
  if picks > n - Combin.Bitset.count t.failed then
    invalid_arg "Kernel.select_greedy: more picks than unchosen units";
  let s = t.s and base = 1 + Combin.Csr.max_degree t.csr in
  let score = Array.make n 0 and chosen = Bytes.make n '\000' in
  let work = ref 0 in
  for u = 0 to n - 1 do
    if Combin.Bitset.mem t.failed u then Bytes.unsafe_set chosen u '\001'
    else begin
      let newly, progress = marginal t u in
      score.(u) <- (newly * base) + progress;
      incr work
    end
  done;
  let hits = t.hits and hosts = t.hosts and unit_of = t.unit_of in
  let row = t.csr.Combin.Csr.row_ptr and ents = t.csr.Combin.Csr.entries in
  let out = Array.make picks 0 in
  for pick = 0 to picks - 1 do
    let u = argmax score chosen in
    out.(pick) <- u;
    Bytes.unsafe_set chosen u '\001';
    Combin.Bitset.add t.failed u;
    t.updates <- t.updates + 1;
    for i = Bigarray.Array1.unsafe_get row u
        to Bigarray.Array1.unsafe_get row (u + 1) - 1 do
      let obj = Bigarray.Array1.unsafe_get ents i in
      let h = Bigarray.Array1.unsafe_get hits obj + 1 in
      Bigarray.Array1.unsafe_set hits obj h;
      if h = s then t.killed <- t.killed + 1;
      let delta = score_delta ~s ~base h in
      if delta <> 0 then begin
        let hs = Array.unsafe_get hosts obj in
        for j = 0 to Array.length hs - 1 do
          let v = Array.unsafe_get unit_of (Array.unsafe_get hs j) in
          if v >= 0 then
            Array.unsafe_set score v (Array.unsafe_get score v + delta)
        done;
        work := !work + Array.length hs
      end
    done
  done;
  (out, !work)

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

     Worst case: {!worst_case} runs [select_greedy]'s exact-score
     greedy (same argmax, same score deltas) over the live rows, on a
     scratch plane so the live failure state is left untouched. *)

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
    (* Exact scores packed as in select_greedy: base exceeds every row
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
      let u = argmax score chosen in
      picks.(pick) <- u;
      Bytes.unsafe_set chosen u '\001';
      let row = t.rows.(u) in
      for i = 0 to t.row_len.(u) - 1 do
        let slot = Array.unsafe_get row i in
        let h = plane.{slot} + 1 in
        plane.{slot} <- h;
        let delta = score_delta ~s ~base h in
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

(* ------------------------------------------------------------------ *)
(* Finisher counts: the per-unit half of the branch-and-bound's
   counting bound (Bb, DESIGN.md §15).

   fin(u) counts the live objects unit u would kill on its own: objects
   at h < s hits of which u holds at least s − h replicas.  An object
   with h hits contributes to a host holding m of its replicas exactly
   when s − m <= h < s, so a hit step h-1 → h changes a contribution
   only at two points: when h reaches s (every host loses the object)
   and when h reaches s − m (a host holding m replicas gains it).  A
   step therefore patches the distinct hosts of one object at most once,
   and an undo patches them back.

   Node kernels hold one replica per host, so they read the kernel's own
   host lists (the layout's replica table) with multiplicity 1; other
   kernels (a unit holding two replicas of one object, or a node in no
   unit) build the flat (unit, multiplicity) table, once, shared by
   every copy. *)

module Finishers = struct
  type nonrec t = {
    kn : kernel;
    fin : int array;  (* unit -> live objects it kills on its own *)
    off : int array;  (* shared: object -> first host in [tab_*]; [||] = none *)
    tab_unit : int array;  (* shared: distinct host units, per object *)
    tab_mult : int array;  (* shared: replicas that host holds *)
    top : int array;  (* scratch for [top_fin] *)
  }

  let kernel t = t.kn
  let fin t u = t.fin.(u)

  (* The distinct units among [obj]'s host entries (entries in no unit
     skipped). *)
  let distinct (kn : kernel) obj =
    let hs = kn.hosts.(obj) and unit_of = kn.unit_of in
    let c = ref 0 in
    for i = 0 to Array.length hs - 1 do
      let u = unit_of.(hs.(i)) in
      if u >= 0 then begin
        let first = ref true in
        for j = 0 to i - 1 do
          if unit_of.(hs.(j)) = u then first := false
        done;
        if !first then incr c
      end
    done;
    !c

  (* The flat (unit, multiplicity) table: [distinct] sizes [off], a fill
     pass merges each object's repeated hosts in place. *)
  let host_table (kn : kernel) =
    let b = kn.b and hosts = kn.hosts and unit_of = kn.unit_of in
    let off = Array.make (b + 1) 0 in
    for obj = 0 to b - 1 do
      off.(obj + 1) <- off.(obj) + distinct kn obj
    done;
    let tab_unit = Array.make off.(b) 0 and tab_mult = Array.make off.(b) 0 in
    for obj = 0 to b - 1 do
      let hs = hosts.(obj) and next = ref off.(obj) in
      for i = 0 to Array.length hs - 1 do
        let u = unit_of.(hs.(i)) in
        if u >= 0 then begin
          let j = ref off.(obj) in
          while !j < !next && tab_unit.(!j) <> u do incr j done;
          if !j = !next then begin
            tab_unit.(!j) <- u;
            incr next
          end;
          tab_mult.(!j) <- tab_mult.(!j) + 1
        end
      done
    done;
    (off, tab_unit, tab_mult)

  (* Add [d] to fin of every distinct host of [obj] holding exactly [m]
     of its replicas, or of every host when [m = 0].  Inlined: it runs
     once per row entry of every add and remove. *)
  let[@inline] patch t obj ~m d =
    let fin = t.fin in
    if Array.length t.off = 0 then begin
      if m <= 1 then begin
        let hs = Array.unsafe_get t.kn.hosts obj and unit_of = t.kn.unit_of in
        for j = 0 to Array.length hs - 1 do
          let v = Array.unsafe_get unit_of (Array.unsafe_get hs j) in
          Array.unsafe_set fin v (Array.unsafe_get fin v + d)
        done
      end
    end
    else begin
      let tab_unit = t.tab_unit and tab_mult = t.tab_mult in
      for j = Array.unsafe_get t.off obj
          to Array.unsafe_get t.off (obj + 1) - 1 do
        if m = 0 || Array.unsafe_get tab_mult j = m then begin
          let v = Array.unsafe_get tab_unit j in
          Array.unsafe_set fin v (Array.unsafe_get fin v + d)
        end
      done
    end

  let make kn =
    let n = units kn and s = kn.s in
    (* The direct path needs every host entry in a unit of its own. *)
    let off, tab_unit, tab_mult =
      let rec direct obj =
        obj = kn.b
        || (distinct kn obj = Array.length kn.hosts.(obj) && direct (obj + 1))
      in
      if direct 0 then ([||], [||], [||]) else host_table kn
    in
    let t =
      { kn; fin = Array.make n 0; off; tab_unit; tab_mult; top = Array.make n 0 }
    in
    (* Seed from the current hits: an object at h < s hits counts for
       every host holding at least s − h of its replicas. *)
    for obj = 0 to kn.b - 1 do
      let h = kn.hits.{obj} in
      if Array.length off = 0 then begin
        if h = s - 1 then patch t obj ~m:1 1
      end
      else if h < s then
        for j = off.(obj) to off.(obj + 1) - 1 do
          if h + tab_mult.(j) >= s then
            t.fin.(tab_unit.(j)) <- t.fin.(tab_unit.(j)) + 1
        done
    done;
    t

  let copy t =
    {
      t with
      kn = copy t.kn;
      fin = Array.copy t.fin;
      top = Array.make (Array.length t.top) 0;
    }

  (* Kernel.add's loop plus the two patch points per hit step. *)
  let add t u =
    let kn = t.kn in
    check_unit kn u "Finishers.add";
    if Combin.Bitset.mem kn.failed u then
      invalid_arg "Kernel.Finishers.add: unit already failed";
    Combin.Bitset.add kn.failed u;
    kn.updates <- kn.updates + 1;
    let hits = kn.hits and s = kn.s in
    let row = kn.csr.Combin.Csr.row_ptr and ents = kn.csr.Combin.Csr.entries in
    let lo = Bigarray.Array1.unsafe_get row u
    and hi = Bigarray.Array1.unsafe_get row (u + 1) in
    let killed = ref kn.killed in
    for i = lo to hi - 1 do
      let obj = Bigarray.Array1.unsafe_get ents i in
      let h = Bigarray.Array1.unsafe_get hits obj + 1 in
      Bigarray.Array1.unsafe_set hits obj h;
      if h = s then begin
        incr killed;
        patch t obj ~m:0 (-1)
      end
      else if h < s then patch t obj ~m:(s - h) 1
    done;
    kn.killed <- !killed

  let remove t u =
    let kn = t.kn in
    check_unit kn u "Finishers.remove";
    if not (Combin.Bitset.mem kn.failed u) then
      invalid_arg "Kernel.Finishers.remove: unit not failed";
    Combin.Bitset.remove kn.failed u;
    kn.updates <- kn.updates + 1;
    let hits = kn.hits and s = kn.s in
    let row = kn.csr.Combin.Csr.row_ptr and ents = kn.csr.Combin.Csr.entries in
    let lo = Bigarray.Array1.unsafe_get row u
    and hi = Bigarray.Array1.unsafe_get row (u + 1) in
    let killed = ref kn.killed in
    for i = lo to hi - 1 do
      let obj = Bigarray.Array1.unsafe_get ents i in
      let h = Bigarray.Array1.unsafe_get hits obj in
      if h = s then begin
        decr killed;
        patch t obj ~m:0 1
      end
      else if h < s then patch t obj ~m:(s - h) (-1);
      Bigarray.Array1.unsafe_set hits obj (h - 1)
    done;
    kn.killed <- !killed

  (* One pass over the suffix, keeping the [m] largest counts sorted in
     the scratch row (insertion is O(m)). *)
  let top_fin t ~start ~m =
    let fin = t.fin and top = t.top in
    let len = ref 0 in
    for u = start to Array.length fin - 1 do
      let f = Array.unsafe_get fin u in
      if !len < m || f > Array.unsafe_get top (m - 1) then begin
        let i = ref (if !len < m then !len else m - 1) in
        while !i > 0 && Array.unsafe_get top (!i - 1) < f do
          Array.unsafe_set top !i (Array.unsafe_get top (!i - 1));
          decr i
        done;
        Array.unsafe_set top !i f;
        if !len < m then incr len
      end
    done;
    let sum = ref 0 in
    for i = 0 to !len - 1 do
      sum := !sum + top.(i)
    done;
    !sum

  (* Unit by unit from the top: count, in a scratch row over the units
     above u, the objects u shares with each, deduplicating u's repeated
     row entries by an object stamp where multiplicities exist. *)
  let pairs t =
    let kn = t.kn in
    let n = units kn in
    let pair = Array.make (n + 1) 0 in
    let cnt = Array.make n 0 and touched = Array.make n 0 in
    let direct = Array.length t.off = 0 in
    let seen = if direct then [||] else Array.make kn.b (-1) in
    let row = kn.csr.Combin.Csr.row_ptr and ents = kn.csr.Combin.Csr.entries in
    let hosts = kn.hosts and unit_of = kn.unit_of in
    let best = ref 0 and ntouched = ref 0 in
    let count u v =
      if v > u then begin
        let c = cnt.(v) + 1 in
        if c = 1 then begin
          touched.(!ntouched) <- v;
          incr ntouched
        end;
        cnt.(v) <- c;
        if c > !best then best := c
      end
    in
    for u = n - 1 downto 0 do
      best := 0;
      ntouched := 0;
      for i = Bigarray.Array1.get row u to Bigarray.Array1.get row (u + 1) - 1 do
        let obj = Bigarray.Array1.get ents i in
        if direct then begin
          let hs = hosts.(obj) in
          for j = 0 to Array.length hs - 1 do
            count u unit_of.(hs.(j))
          done
        end
        else if seen.(obj) <> u then begin
          seen.(obj) <- u;
          for j = t.off.(obj) to t.off.(obj + 1) - 1 do
            count u t.tab_unit.(j)
          done
        end
      done;
      for i = 0 to !ntouched - 1 do
        cnt.(touched.(i)) <- 0
      done;
      pair.(u) <- max pair.(u + 1) !best
    done;
    pair
end
