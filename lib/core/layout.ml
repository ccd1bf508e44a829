type t = {
  n : int;
  r : int;
  replicas : int array array;
  mutable node_csr : Combin.Csr.t option;
}

let make ~n ~r replicas =
  if r < 1 || n < r then invalid_arg "Layout.make: need 1 <= r <= n";
  Array.iter
    (fun rep ->
      if Array.length rep <> r then
        invalid_arg "Layout.make: replica set of wrong size";
      if not (Combin.Intset.is_sorted_distinct rep) then
        invalid_arg "Layout.make: replica set not sorted/distinct";
      if rep.(0) < 0 || rep.(r - 1) >= n then
        invalid_arg "Layout.make: node out of range")
    replicas;
  { n; r; replicas; node_csr = None }

let b t = Array.length t.replicas

let incidence t =
  match t.node_csr with
  | Some csr -> csr
  | None ->
      let csr = Combin.Csr.invert ~rows:t.n t.replicas in
      (* Benign race under domains: the CSR is a pure function of the
         immutable replica table, so concurrent builders store identical
         indexes and one pointer write wins. *)
      t.node_csr <- Some csr;
      csr

let loads t =
  let counts = Array.make t.n 0 in
  Array.iter (fun rep -> Array.iter (fun nd -> counts.(nd) <- counts.(nd) + 1) rep) t.replicas;
  counts

let max_load t = Array.fold_left max 0 (loads t)

let is_load_balanced t ~cap = max_load t <= cap

let failed_objects t ~s ~failed_nodes =
  if not (Combin.Intset.is_sorted_distinct failed_nodes) then
    invalid_arg "Layout.failed_objects: failure set not sorted/distinct";
  let failed = ref 0 in
  Array.iter
    (fun rep -> if Combin.Intset.inter_size rep failed_nodes >= s then incr failed)
    t.replicas;
  !failed

let avail t ~s ~failed_nodes = b t - failed_objects t ~s ~failed_nodes

let scatter_widths t =
  let neighbours = Array.make t.n [] in
  Array.iter
    (fun rep ->
      Array.iter
        (fun nd ->
          Array.iter
            (fun other ->
              if other <> nd then neighbours.(nd) <- other :: neighbours.(nd))
            rep)
        rep)
    t.replicas;
  Array.map
    (fun l -> Array.length (Combin.Intset.of_array (Array.of_list l)))
    neighbours

let concat = function
  | [] -> invalid_arg "Layout.concat: empty"
  | first :: _ as parts ->
      List.iter
        (fun p ->
          if p.n <> first.n || p.r <> first.r then
            invalid_arg "Layout.concat: mismatched n or r")
        parts;
      {
        first with
        replicas = Array.concat (List.map (fun p -> p.replicas) parts);
        node_csr = None;
      }
