(* The eight built-in placement families behind one Strategy.S interface.

   Shared conventions:
   - randomized families default their rng to seed 42 (matching the CLI's
     default --seed), deterministic ones ignore it;
   - lower_bound is the Lemma-2/3 worst-case guarantee where the family
     has one.  Random and Copyset get the x = 0 instance of Lemma 2: a
     layout whose max per-node load is λ is a Simple(0, λ) placement, so
     at most ⌊λ·C(k,1)/C(s,1)⌋ = ⌊λk/s⌋ objects die.  For Random the cap
     ⌈r·b/n⌉ bounds λ a priori; Copyset and the spread families need
     the realized layout. *)

let default_rng rng = match rng with Some r -> r | None -> Combin.Rng.create 42

(* Lemma 2 at x = 0 with λ = the layout's max load (clamped at 0). *)
let load_bound inst lambda =
  let p = Instance.params inst in
  (Analysis.lb_avail_si_report ~choose:(Instance.choose inst) ~b:p.Params.b
     ~x:0 ~lambda ~k:p.Params.k ~s:p.Params.s ())
    .Analysis.lb_clamped

(* load_bound at the realized layout's max load: the given layout, or a
   default-rng plan.  A plan that raises Invalid_argument (a spread cap
   leaving fewer than r slots) gives None: report assembly stays
   total. *)
let realized_bound ~plan ?layout inst =
  match layout with
  | Some l -> Some (load_bound inst (Layout.max_load l))
  | None -> (
      try Some (load_bound inst (Layout.max_load (plan inst)))
      with Invalid_argument _ -> None)

module Combo_s = struct
  let name = "combo"
  let describe =
    "Combo(<lambda_x>): the Sec. III-B1 dynamic program over Simple(x, lambda) levels \
     (Lemma 3 guarantee)"

  let capabilities = [ Strategy.Deterministic ]
  let plan ?rng:_ inst = Instance.combo_layout inst
  let lower_bound ?layout:_ inst = Some (Instance.combo_config inst).Combo.lb

  let explain inst =
    let cfg = Instance.combo_config inst in
    let lines = ref [] in
    Array.iteri
      (fun x lambda ->
        if lambda > 0 then begin
          let level = cfg.Combo.levels.(x) in
          let design =
            match level.Combo.entry with
            | Some e -> e.Designs.Registry.name
            | None -> "-"
          in
          lines :=
            Printf.sprintf "Simple(%d, %d): nx=%d design=%s objects=%d" x lambda
              level.Combo.nx design cfg.Combo.assigned.(x)
            :: !lines
        end)
      cfg.Combo.lambdas;
    List.rev !lines
end

module Simple_s = struct
  let name = "simple"
  let describe =
    "best single Simple(x, lambda) level: the materialized design maximizing the \
     Lemma 2 bound"

  let capabilities = [ Strategy.Deterministic ]

  (* The level (with its Eqn-1 minimal λ) maximizing lbAvail_si; only
     materialized designs qualify so the bound talks about the layout
     plan actually builds. *)
  let best_level inst =
    let p = Instance.params inst in
    let best = ref None in
    Array.iter
      (fun (level : Combo.level) ->
        match level.Combo.entry with
        | Some e when level.Combo.cap_mu > 0 && Designs.Registry.is_materialized e ->
            let copies = (p.Params.b + level.Combo.cap_mu - 1) / level.Combo.cap_mu in
            let lambda = max 1 copies * level.Combo.mu in
            let lb =
              (Analysis.lb_avail_si_report ~choose:(Instance.choose inst)
                 ~b:p.Params.b ~x:level.Combo.x ~lambda ~k:p.Params.k
                 ~s:p.Params.s ())
                .Analysis.lb_clamped
            in
            (match !best with
            | Some (_, _, best_lb) when best_lb >= lb -> ()
            | _ -> best := Some (level, lambda, lb))
        | _ -> ())
      (Instance.levels inst);
    !best

  let plan ?rng:_ inst =
    match best_level inst with
    | None ->
        invalid_arg
          (Format.asprintf "simple: no materialized design for %a" Instance.pp inst)
    | Some (level, _, _) ->
        let e = Option.get level.Combo.entry in
        let p = Instance.params inst in
        (Simple.of_entry e ~n:p.Params.n ~b:p.Params.b).Simple.layout

  let lower_bound ?layout:_ inst =
    Option.map (fun (_, _, lb) -> lb) (best_level inst)

  let explain inst =
    match best_level inst with
    | None -> [ "no materialized design available for these parameters" ]
    | Some (level, lambda, _) ->
        let e = Option.get level.Combo.entry in
        [
          Printf.sprintf "Simple(%d, %d): nx=%d design=%s objects=%d" level.Combo.x
            lambda level.Combo.nx e.Designs.Registry.name
            (Instance.params inst).Params.b;
        ]
end

module Random_s = struct
  let name = "random"
  let describe =
    "load-balanced uniform placement (Definition 4); guarantee from the \
     ceil(r*b/n) load cap, probable availability from Theorem 2"

  let capabilities = [ Strategy.Randomized; Strategy.Load_balanced ]
  let plan ?rng inst = Instance.random_layout ~rng:(default_rng rng) inst

  let lower_bound ?layout inst =
    let lambda =
      match layout with
      | Some l -> Layout.max_load l
      | None -> Instance.load_cap inst
    in
    Some (load_bound inst lambda)

  let explain inst =
    let p = Instance.params inst in
    [
      Printf.sprintf "load cap ceil(r*b/n) = %d replicas/node (Definition 4)"
        (Instance.load_cap inst);
      Printf.sprintf "probable availability (Definition 6): %d / %d"
        (Instance.pr_avail inst) p.Params.b;
    ]
end

module Copyset_s = struct
  let name = "copyset"
  let describe =
    "copyset replication (Cidon et al. 2013), scatter width 2(r-1); a \
     Simple(0, lambda) placement in the paper's vocabulary"

  let capabilities = [ Strategy.Randomized ]
  let plan ?rng inst = snd (Instance.copyset ~rng:(default_rng rng) inst)
  let lower_bound = realized_bound ~plan

  let explain inst =
    let p = Instance.params inst in
    let sw = 2 * (p.Params.r - 1) in
    [
      Printf.sprintf
        "scatter width %d => %d permutations of %d nodes chopped into copysets" sw
        ((sw + p.Params.r - 2) / (p.Params.r - 1))
        p.Params.n;
    ]
end

module Adaptive_s = struct
  let name = "adaptive"
  let describe =
    "online Combo (Sec. IV-D future work): objects routed to the level whose \
     effective lambda grows least"

  let capabilities = [ Strategy.Deterministic; Strategy.Online ]

  let state inst =
    let p = Instance.params inst in
    let t =
      Adaptive.create ~n:p.Params.n ~r:p.Params.r ~s:p.Params.s ~k:p.Params.k ()
    in
    ignore (Adaptive.add_many t p.Params.b);
    t

  let plan ?rng:_ inst = Adaptive.layout (state inst)
  let lower_bound ?layout:_ inst = Some (Adaptive.lower_bound (state inst))

  let explain inst =
    let t = state inst in
    [
      Printf.sprintf "effective lambda per level: %s"
        (String.concat ","
           (Array.to_list (Array.map string_of_int (Adaptive.lambdas t))));
      Printf.sprintf "offline DP at the same population would guarantee %d"
        (Adaptive.optimal_bound t);
    ]
end

module Optimal_s = struct
  let name = "optimal"
  let describe =
    "exhaustive search for the availability-optimal placement (tiny instances \
     only; raises over budget)"

  let capabilities = [ Strategy.Deterministic; Strategy.Exact_small ]

  let best inst =
    let p = Instance.params inst in
    Optimal.best ~n:p.Params.n ~r:p.Params.r ~s:p.Params.s ~k:p.Params.k
      ~b:p.Params.b ()

  let affordable inst =
    let p = Instance.params inst in
    Optimal.search_cost ~n:p.Params.n ~r:p.Params.r ~k:p.Params.k ~b:p.Params.b
    <= 5e8

  let plan ?rng:_ inst = snd (best inst)

  let lower_bound ?layout:_ inst =
    if affordable inst then Some (fst (best inst)) else None

  let explain inst =
    let p = Instance.params inst in
    if affordable inst then
      [ Printf.sprintf "exhaustive search over all placements of %d objects" p.Params.b ]
    else
      [
        Printf.sprintf "search cost %.3g exceeds the 5e8 budget: not computable"
          (Optimal.search_cost ~n:p.Params.n ~r:p.Params.r ~k:p.Params.k
             ~b:p.Params.b);
      ]
end

(* The spread families plan against the instance's fault-domain map
   (Instance.domains; every node its own domain by default). *)
let spread_explain ~name inst =
  let p = Instance.params inst and d = Instance.domains inst in
  let immune = (p.Params.s - 1) / d.Spread.cap in
  [
    Printf.sprintf "topology: %s" d.Spread.summary;
    Printf.sprintf "constraint: at most %d replica(s) per %s (%s)" d.Spread.cap
      d.Spread.level name;
    (if immune > 0 then
       Printf.sprintf
         "any %d simultaneous %s failure(s) kill zero objects (j*cap < s=%d)"
         immune d.Spread.level p.Params.s
     else
       Printf.sprintf "no domain-failure immunity at cap %d (s=%d)" d.Spread.cap
         p.Params.s);
  ]

module Simple_spread_s = struct
  let name = "simple-spread"
  let describe =
    "deterministic round-robin across fault domains, at most cap replicas per \
     domain"

  let capabilities = [ Strategy.Deterministic; Strategy.Domain_capped ]

  let plan ?rng:_ inst =
    let p = Instance.params inst in
    Spread.simple (Instance.domains inst) ~b:p.Params.b ~r:p.Params.r

  let lower_bound = realized_bound ~plan
  let explain = spread_explain ~name
end

module Random_spread_s = struct
  let name = "random-spread"
  let describe =
    "randomized placement constrained to at most cap replicas per fault \
     domain"

  let capabilities = [ Strategy.Randomized; Strategy.Domain_capped ]

  let plan ?rng inst =
    let p = Instance.params inst in
    Spread.random ~rng:(default_rng rng) (Instance.domains inst) ~b:p.Params.b
      ~r:p.Params.r

  let lower_bound = realized_bound ~plan
  let explain = spread_explain ~name
end

let all : (module Strategy.S) list =
  [
    (module Adaptive_s);
    (module Combo_s);
    (module Copyset_s);
    (module Optimal_s);
    (module Random_s);
    (module Random_spread_s);
    (module Simple_s);
    (module Simple_spread_s);
  ]

let names = List.map (fun (module S : Strategy.S) -> S.name) all

let find name =
  List.find_opt (fun (module S : Strategy.S) -> S.name = name) all

let display_name (module M : Strategy.S) = String.capitalize_ascii M.name
