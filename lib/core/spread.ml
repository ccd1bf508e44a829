type domains = {
  domain_of : int array;
  cap : int;
  level : string;
  summary : string;
}

let count d = Array.fold_left (fun acc id -> max acc (id + 1)) 0 d.domain_of

(* members.(id): the domain's nodes, ascending. *)
let members d =
  let buckets = Array.make (count d) [] in
  for nd = Array.length d.domain_of - 1 downto 0 do
    let id = d.domain_of.(nd) in
    buckets.(id) <- nd :: buckets.(id)
  done;
  Array.map Array.of_list buckets

let slots d =
  Array.fold_left (fun acc m -> acc + min d.cap (Array.length m)) 0 (members d)

let check_feasible d ~r =
  let available = slots d in
  if available >= r then Ok ()
  else
    Error
      (Printf.sprintf
         "cannot place r=%d replicas with at most %d per %s: the %d %ss offer \
          only %d replica slots (sum of min(cap, size)); raise the spread cap \
          or use a finer topology"
         r d.cap d.level (count d) d.level available)

(* Round-robin skeleton shared by both planners.  Per object: visit
   domains cyclically in [order], taking one node per eligible visit
   ([pick] chooses among the object's unused members of the domain)
   until r replicas are placed.  One-node-per-visit keeps replicas
   maximally spread even when the cap would allow clustering; the
   feasibility check guarantees termination within r cycles. *)
let place ~who ~order ~pick d ~b ~r =
  (match check_feasible d ~r with
  | Ok () -> ()
  | Error msg -> invalid_arg (who ^ ": " ^ msg));
  let members = members d in
  let n = Array.length d.domain_of in
  let nd = Array.length members in
  let replicas =
    Array.init b (fun o ->
        let visit = order ~obj:o ~domains:nd in
        let used = Array.make nd 0 in
        let taken = Array.make n false in
        let chosen = ref [] in
        let needed = ref r in
        let i = ref 0 in
        while !needed > 0 do
          let dom = visit !i in
          let m = members.(dom) in
          if used.(dom) < min d.cap (Array.length m) then begin
            let node = pick ~members:m ~taken in
            taken.(node) <- true;
            used.(dom) <- used.(dom) + 1;
            chosen := node :: !chosen;
            decr needed
          end;
          incr i
        done;
        Combin.Intset.of_array (Array.of_list !chosen))
  in
  Layout.make ~n ~r replicas

let simple d ~b ~r =
  let loads = Array.make (Array.length d.domain_of) 0 in
  let order ~obj ~domains i = (obj + i) mod domains in
  (* Least-loaded unused member, ties to the lowest node id. *)
  let pick ~members ~taken =
    let best = ref (-1) in
    Array.iter
      (fun node ->
        if not taken.(node) then
          if !best = -1 || loads.(node) < loads.(!best) then best := node)
      members;
    loads.(!best) <- loads.(!best) + 1;
    !best
  in
  place ~who:"simple-spread" ~order ~pick d ~b ~r

let random ~rng d ~b ~r =
  let order ~obj:_ ~domains =
    let perm = Array.init domains Fun.id in
    Combin.Rng.shuffle rng perm;
    fun i -> perm.(i mod domains)
  in
  let pick ~members ~taken =
    let free = List.filter (fun nd -> not taken.(nd)) (Array.to_list members) in
    List.nth free (Combin.Rng.int rng (List.length free))
  in
  place ~who:"random-spread" ~order ~pick d ~b ~r

let max_per_domain (layout : Layout.t) d =
  if layout.n <> Array.length d.domain_of then
    invalid_arg "Spread.max_per_domain: layout/domain map n mismatch";
  let worst = ref 0 in
  let counts = Array.make (count d) 0 in
  Array.iter
    (fun replicas ->
      Array.iter
        (fun node ->
          let dom = d.domain_of.(node) in
          counts.(dom) <- counts.(dom) + 1;
          if counts.(dom) > !worst then worst := counts.(dom))
        replicas;
      Array.iter (fun node -> counts.(d.domain_of.(node)) <- 0) replicas)
    layout.replicas;
  !worst
