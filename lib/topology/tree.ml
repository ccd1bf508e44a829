type t = {
  n : int;
  level_names : string array;  (* level_names.(0) is the leaf level *)
  members : int array array array;  (* members.(l).(d): nodes, ascending *)
  node_domain : int array array;  (* node_domain.(l).(nd) *)
}

(* Renumber arbitrary non-negative domain ids to 0..d-1, preserving the
   ascending order of the original ids. *)
let normalize ~name assign =
  let ids = Combin.Intset.of_array assign in
  Array.iter
    (fun id ->
      if id < 0 then
        invalid_arg
          (Printf.sprintf "Topology.Tree.make: level %S has a negative domain id"
             name))
    ids;
  let rank id =
    (* ids is sorted distinct; binary search. *)
    let lo = ref 0 and hi = ref (Array.length ids - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ids.(mid) < id then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (Array.length ids, Array.map rank assign)

let make ?(leaf_name = "node") ~n levels =
  if n < 1 then invalid_arg "Topology.Tree.make: n < 1";
  List.iter
    (fun (name, assign) ->
      if String.length name = 0 then
        invalid_arg "Topology.Tree.make: empty level name";
      if Array.length assign <> n then
        invalid_arg
          (Printf.sprintf
             "Topology.Tree.make: level %S assigns %d nodes, expected %d" name
             (Array.length assign) n))
    levels;
  let names = leaf_name :: List.map fst levels in
  let sorted = List.sort_uniq compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Topology.Tree.make: duplicate level name";
  let interior =
    List.map (fun (name, assign) -> normalize ~name assign) levels
  in
  let node_domain =
    Array.of_list
      (Array.init n Fun.id :: List.map snd interior)
  in
  let counts = Array.of_list (n :: List.map fst interior) in
  let depth = Array.length counts in
  (* Nesting: two nodes sharing a domain at level l must share one at
     every coarser level. *)
  for l = 0 to depth - 2 do
    let coarse_of = Array.make counts.(l) (-1) in
    for nd = 0 to n - 1 do
      let d = node_domain.(l).(nd) and c = node_domain.(l + 1).(nd) in
      if coarse_of.(d) = -1 then coarse_of.(d) <- c
      else if coarse_of.(d) <> c then
        invalid_arg
          (Printf.sprintf
             "Topology.Tree.make: level %S does not nest inside level %S \
              (domain %d spans two coarser domains)"
             (List.nth names l) (List.nth names (l + 1)) d)
    done
  done;
  let members =
    Array.init depth (fun l ->
        let buckets = Array.make counts.(l) [] in
        for nd = n - 1 downto 0 do
          let d = node_domain.(l).(nd) in
          buckets.(d) <- nd :: buckets.(d)
        done;
        Array.map Array.of_list buckets)
  in
  { n; level_names = Array.of_list names; members; node_domain }

let n t = t.n
let depth t = Array.length t.level_names

let check_level t level =
  if level < 0 || level >= depth t then
    invalid_arg
      (Printf.sprintf "Topology.Tree: level %d out of range [0, %d)" level
         (depth t))

let level_name t l =
  check_level t l;
  t.level_names.(l)

let level_names t = Array.copy t.level_names

let default_level t = min 1 (depth t - 1)

let find_level t name =
  let found = ref None in
  Array.iteri
    (fun l nm -> if nm = name && !found = None then found := Some l)
    t.level_names;
  !found

let domain_count t ~level =
  check_level t level;
  Array.length t.members.(level)

let members t ~level d =
  check_level t level;
  t.members.(level).(d)

let domain_of t ~level nd =
  check_level t level;
  t.node_domain.(level).(nd)

let sizes t ~level =
  check_level t level;
  Array.map Array.length t.members.(level)

let parent t ~level d =
  check_level t level;
  if level >= depth t - 1 then
    invalid_arg "Topology.Tree.parent: top level has no parent";
  t.node_domain.(level + 1).(t.members.(level).(d).(0))

let uniform t ~level =
  let s = sizes t ~level in
  let sz = s.(0) in
  if Array.for_all (fun x -> x = sz) s then Some sz else None
