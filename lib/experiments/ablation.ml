type adversary_row = {
  desc : string;
  s : int;
  k : int;
  greedy_failed : int;
  exact_failed : int option;
}

let adversary_cases () =
  let sts = Designs.Steiner_triple.make 31 in
  let simple b = (Placement.Simple.of_design sts ~n:31 ~b).Placement.Simple.layout in
  let rng = Combin.Rng.create 0xAB1A in
  let random b s k =
    let inst = Placement.Instance.make ~b ~r:3 ~s ~n:31 ~k () in
    Placement.Instance.random_layout ~rng inst
  in
  [
    ("Simple(1,l) n=31 b=600", simple 600, 2, 3);
    ("Simple(1,l) n=31 b=600", simple 600, 2, 4);
    ("Simple(1,l) n=31 b=1200", simple 1200, 3, 4);
    ("Random n=31 b=600", random 600 2 3, 2, 3);
    ("Random n=31 b=600", random 600 2 4, 2, 4);
    ("Random n=31 b=1200", random 1200 3 4, 3, 4);
  ]

let adversary () =
  List.map
    (fun (desc, layout, s, k) ->
      let greedy = Placement.Adversary.greedy layout ~s ~k in
      let exact = Placement.Adversary.exact layout ~s ~k in
      {
        desc;
        s;
        k;
        greedy_failed = greedy.Placement.Adversary.failed_objects;
        exact_failed =
          (if exact.Placement.Adversary.exact then
             Some exact.Placement.Adversary.failed_objects
           else None);
      })
    (adversary_cases ())

type random_row = {
  n : int;
  r : int;
  b : int;
  s : int;
  k : int;
  capped_max_load : int;
  uncapped_max_load : int;
  capped_avail : float;
  uncapped_avail : float;
}

let random ?(trials = 10) () =
  List.map
    (fun (n, r, b, s, k) ->
      let inst = Placement.Instance.make ~b ~r ~s ~n ~k () in
      let p = Placement.Instance.params inst in
      let run place =
        let loads = ref 0 and avails = ref [] in
        for trial = 1 to trials do
          let rng = Combin.Rng.create (0xAB2A + trial) in
          let layout = place ~rng p in
          loads := max !loads (Placement.Layout.max_load layout);
          let attack = Placement.Instance.attack inst layout in
          avails :=
            float_of_int (Placement.Instance.avail inst layout attack) :: !avails
        done;
        (!loads, Combin.Stats.mean (Array.of_list !avails))
      in
      let capped_max_load, capped_avail = run Placement.Random_placement.place in
      let uncapped_max_load, uncapped_avail =
        run Placement.Random_placement.place_unconstrained
      in
      {
        n;
        r;
        b;
        s;
        k;
        capped_max_load;
        uncapped_max_load;
        capped_avail;
        uncapped_avail;
      })
    [ (31, 3, 600, 2, 3); (71, 3, 1200, 2, 4); (71, 5, 600, 3, 4) ]

type load_row = {
  desc : string;
  n : int;
  b : int;
  r : int;
  mean_load : float;
  max_load : int;
  stddev_load : float;
  idle_nodes : int;
  mean_scatter : float;
}

let load_stats desc n b r layout =
  let loads = Placement.Layout.loads layout in
  let floats = Array.map float_of_int loads in
  {
    desc;
    n;
    b;
    r;
    mean_load = Combin.Stats.mean floats;
    max_load = Placement.Layout.max_load layout;
    stddev_load = Combin.Stats.stddev floats;
    idle_nodes = Array.fold_left (fun acc l -> if l = 0 then acc + 1 else acc) 0 loads;
    mean_scatter =
      Combin.Stats.mean
        (Array.map float_of_int (Placement.Layout.scatter_widths layout));
  }

let load () =
  List.concat_map
    (fun (n, r, s, b, k) ->
      let inst = Placement.Instance.make ~b ~r ~s ~n ~k () in
      let cfg = Placement.Instance.combo_config inst in
      let combo = Placement.Instance.combo_layout ~config:cfg inst in
      let rng = Combin.Rng.create 0xAB3A in
      let random = Placement.Instance.random_layout ~rng inst in
      let spread = Placement.Instance.combo_layout ~spread:true ~config:cfg inst in
      [
        load_stats (Printf.sprintf "combo n=%d r=%d s=%d" n r s) n b r combo;
        load_stats (Printf.sprintf "combo+spread n=%d r=%d s=%d" n r s) n b r spread;
        load_stats (Printf.sprintf "random n=%d r=%d s=%d" n r s) n b r random;
      ])
    [ (31, 3, 2, 600, 3); (71, 3, 2, 2400, 4); (71, 5, 3, 1200, 4) ]

type online_row = {
  phase : string;
  b : int;
  online_lb : int;
  offline_lb : int;
}

let online () =
  let rng = Combin.Rng.create 0xAB4A in
  let t = Placement.Adaptive.create ~n:71 ~r:3 ~s:2 ~k:4 () in
  let live = ref [] in
  let snap phase =
    {
      phase;
      b = Placement.Adaptive.size t;
      online_lb = Placement.Adaptive.lower_bound t;
      offline_lb = Placement.Adaptive.optimal_bound t;
    }
  in
  let add count = live := Placement.Adaptive.add_many t count @ !live in
  let remove count =
    for _ = 1 to count do
      match !live with
      | [] -> ()
      | _ ->
          let arr = Array.of_list !live in
          let victim = arr.(Combin.Rng.int rng (Array.length arr)) in
          Placement.Adaptive.remove t victim;
          live := List.filter (fun id -> id <> victim) !live
    done
  in
  add 700;
  let r1 = snap "grow to 700" in
  add 1700;
  let r2 = snap "grow to 2400" in
  remove 1200;
  let r3 = snap "shrink to 1200" in
  add 1200;
  let r4 = snap "regrow to 2400" in
  [ r1; r2; r3; r4 ]

let print_adversary fmt =
  Format.fprintf fmt
    "Ablation: adversary strength (failed objects; higher = stronger attack)@.";
  let rows =
    List.map
      (fun (r : adversary_row) ->
        [
          r.desc;
          string_of_int r.s;
          string_of_int r.k;
          string_of_int r.greedy_failed;
          (match r.exact_failed with
          | Some v -> string_of_int v
          | None -> "(truncated)");
        ])
      (adversary ())
  in
  Format.fprintf fmt "%s@."
    (Render.table
       ~headers:[ "placement"; "s"; "k"; "greedy"; "exact" ]
       ~rows)

let print_random fmt =
  Format.fprintf fmt
    "Ablation: load-capped Random (Def. 4) vs uncapped Random'@.";
  let rows =
    List.map
      (fun (r : random_row) ->
        [
          string_of_int r.n;
          string_of_int r.r;
          string_of_int r.b;
          string_of_int r.s;
          string_of_int r.k;
          string_of_int r.capped_max_load;
          string_of_int r.uncapped_max_load;
          Render.f2 r.capped_avail;
          Render.f2 r.uncapped_avail;
        ])
      (random ())
  in
  Format.fprintf fmt "%s@."
    (Render.table
       ~headers:
         [ "n"; "r"; "b"; "s"; "k"; "maxload(cap)"; "maxload(no)"; "avail(cap)"; "avail(no)" ]
       ~rows)

let print_load fmt =
  Format.fprintf fmt
    "Ablation: per-node load of Combo vs Random placements (Observation 2)@.";
  let rows =
    List.map
      (fun (r : load_row) ->
        [
          r.desc;
          string_of_int r.b;
          Render.f2 r.mean_load;
          string_of_int r.max_load;
          Render.f2 r.stddev_load;
          string_of_int r.idle_nodes;
          Render.f2 r.mean_scatter;
        ])
      (load ())
  in
  Format.fprintf fmt "%s@."
    (Render.table
       ~headers:[ "placement"; "b"; "mean"; "max"; "stddev"; "idle nodes"; "scatter" ]
       ~rows)

let print_online fmt =
  Format.fprintf fmt
    "Ablation: online (adaptive) vs offline Combo through a churn cycle@.";
  let rows =
    List.map
      (fun (r : online_row) ->
        [
          r.phase;
          string_of_int r.b;
          string_of_int r.online_lb;
          string_of_int r.offline_lb;
          (if r.online_lb = r.offline_lb then "match" else "behind");
        ])
      (online ())
  in
  Format.fprintf fmt "%s@."
    (Render.table
       ~headers:[ "phase"; "b"; "online lb"; "offline lb"; "" ]
       ~rows)
