(* placement-tool: command-line front end to the replica-placement
   library.  The command table at the end lists the subcommands. *)

open Cmdliner

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ())

let die msg =
  Fmt.epr "%s@." msg;
  exit 1

let require_non_negative flag what v =
  if v < 0 then die (Printf.sprintf "%s %d: %s must be non-negative" flag v what)

(* Shared arguments, paper notation.  -n and -b are required by the
   commands that only take explicit sizes and optional where another
   source (a layout file, --random) can supply them. *)
let n_info = Arg.info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes."
let b_info = Arg.info [ "b"; "objects" ] ~docv:"B" ~doc:"Number of objects."
let n_arg = Arg.(required & opt (some int) None & n_info)
let b_arg = Arg.(required & opt (some int) None & b_info)

let r_arg =
  Arg.(value & opt int 3 & info [ "r"; "replicas" ] ~docv:"R" ~doc:"Replicas per object.")

let s_arg =
  Arg.(
    value
    & opt int 2
    & info [ "s"; "fatal" ] ~docv:"S"
        ~doc:"Number of replica failures that fail an object (1 <= s <= r).")

let k_arg =
  Arg.(value & opt int 2 & info [ "k"; "failures" ] ~docv:"K" ~doc:"Number of node failures planned for.")

let seed_arg ~default ~doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let measure_every_arg ~default ~doc =
  Arg.(value & opt int default & info [ "measure-every" ] ~docv:"E" ~doc)

let objects_error b =
  Printf.sprintf "b = %d: -b/--objects must be a positive object count" b

let replicas_error r =
  Printf.sprintf "r = %d: -r/--replicas must be a positive replica count" r

(* Explicit, flag-naming rejections for the parameter mistakes users
   actually make; Params.validate remains the backstop for the rest. *)
let validate_params ~n ~b ~r ~s ~k =
  let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  if b <= 0 then Error (objects_error b)
  else if r <= 0 then Error (replicas_error r)
  else if s < 1 then
    err "s = %d: -s/--fatal must be at least 1 (one replica loss can always be fatal)" s
  else if s > r then
    err
      "s = %d exceeds r = %d: an object only has r replicas to lose, so \
       -s/--fatal must satisfy 1 <= s <= r (raise -r or lower -s)"
      s r
  else if n < r then
    err
      "n = %d is smaller than r = %d: r replicas need r distinct nodes; \
       raise -n/--nodes or lower -r/--replicas"
      n r
  else if k >= n then
    err
      "k = %d with only n = %d nodes: planning for every node (or more) to \
       fail guarantees nothing survives; -k/--failures must satisfy s <= k < n"
      k n
  else if k < s then
    err
      "k = %d is below s = %d: fewer simultaneous failures than the fatality \
       threshold cannot fail any object, so there is nothing to plan; raise \
       -k/--failures"
      k s
  else Placement.Params.validate { Placement.Params.b; r; s; n; k }

(* A failed check as a cmdliner term error (exit 124, prefixed with the
   tool name) ... *)
let ret_params = function
  | Ok v -> `Ok v
  | Error msg -> `Error (false, "invalid parameters: " ^ msg)

(* ... or, inside a subcommand body, as a bare message with exit 1. *)
let check_params ~n ~b ~r ~s ~k =
  match validate_params ~n ~b ~r ~s ~k with
  | Ok p -> p
  | Error msg -> die ("invalid parameters: " ^ msg)

let params_term =
  let combine n b r s k = ret_params (validate_params ~n ~b ~r ~s ~k) in
  Term.(ret (const combine $ n_arg $ b_arg $ r_arg $ s_arg $ k_arg))

let jobs_arg =
  Arg.(
    value
    & opt int (Engine.Pool.default_domains ())
    & info [ "j"; "jobs" ] ~docv:"J"
        ~doc:
          "Worker domains for the parallel adversary (default: the number of \
           cores). Results are bit-identical at any $(docv); 1 runs the \
           sequential reference path.")

let jobs_term =
  let check j =
    if j < 1 then
      `Error
        ( false,
          Printf.sprintf
            "-j %d: the worker-domain count must be at least 1 (use -j 1 for \
             the sequential path, or omit -j to use every core)"
            j )
    else `Ok j
  in
  Term.(ret (const check $ jobs_arg))

let with_pool jobs f =
  if jobs = 1 then f None
  else Engine.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool))

(* ------------------------------------------------------------------ *)
(* Telemetry and structured output.

   --metrics/--trace enable the (otherwise disabled, near-zero-cost)
   Telemetry registry around the subcommand body and export its snapshot
   when the body finishes: metrics as a placement/v1 JSON envelope,
   traces in the Chrome trace-event format (deliberately unwrapped —
   chrome://tracing and Perfetto expect the raw format). *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write run telemetry (search statistics, cache hits, pool \
           utilization) to $(docv) as a placement/v1 JSON document; use - \
           for stdout.  Deterministic counts appear under \"values\", \
           wall-clock and scheduling data under \"timings\".")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run's timed spans to \
           $(docv) (load it in chrome://tracing or Perfetto); use - for \
           stdout.  Implies collecting telemetry.")

let json_flag =
  Arg.(
    value
    & flag
    & info [ "json" ]
        ~doc:
          "Emit a machine-readable placement/v1 JSON envelope instead of the \
           human-readable report.")

let write_doc path content =
  if path = "-" then print_string content
  else
    match open_out path with
    | exception Sys_error msg -> die (Printf.sprintf "cannot write %s" msg)
    | oc ->
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc content)

let print_envelope ~command data =
  print_string
    (Telemetry.Json.to_string ~indent:2
       (Placement.Codec.json_envelope ~command data)
    ^ "\n")

(* --metrics/--trace: every subcommand that exports telemetry runs its
   body under [with_io], so the flags parse, validate and initialize
   identically everywhere. *)
type telemetry = { metrics : string option; trace : string option }

let telemetry_term =
  Term.(const (fun metrics trace -> { metrics; trace }) $ metrics_arg $ trace_arg)

let with_io { metrics; trace } f =
  setup_logs ();
  match (metrics, trace) with
  | None, None -> f ()
  | _ ->
      Telemetry.Registry.reset ();
      Telemetry.Control.set_enabled true;
      if trace <> None then Telemetry.Control.set_tracing true;
      Fun.protect
        ~finally:(fun () ->
          (* Gauges no-op once telemetry is off, so the resource sample
             must land before the switch. *)
          Telemetry.Resource.sample ();
          Telemetry.Control.set_enabled false;
          Telemetry.Control.set_tracing false;
          (match metrics with
          | None -> ()
          | Some path ->
              let snap = Telemetry.Registry.snapshot () in
              write_doc path
                (Telemetry.Json.to_string ~indent:2
                   (Placement.Codec.json_envelope ~command:"metrics"
                      (Telemetry.Export.metrics_json snap))
                ^ "\n"));
          match trace with
          | None -> ()
          | Some path ->
              write_doc path
                (Telemetry.Json.to_string (Telemetry.Export.trace_json ()) ^ "\n"))
        f

(* --random N,B,R,SEED: a synthetic load-balanced Random instance, the
   scaling workhorse — attack and analyze accept it in place of a layout
   file or explicit -n/-b, so large instances need no on-disk export. *)

let random_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "random" ] ~docv:"N,B,R,SEED"
        ~doc:
          "Generate a synthetic load-balanced Random placement of $(docv) \
           (nodes, objects, replicas, PRNG seed) and run on it instead of a \
           layout file or an explicit instance.")

let parse_random spec =
  match List.map String.trim (String.split_on_char ',' spec) with
  | [ n; b; r; seed ] -> (
      match
        ( int_of_string_opt n,
          int_of_string_opt b,
          int_of_string_opt r,
          int_of_string_opt seed )
      with
      | Some n, Some b, Some r, Some seed -> Ok (n, b, r, seed)
      | _ ->
          Error
            (Printf.sprintf "--random %s: all four fields must be integers" spec))
  | _ ->
      Error
        (Printf.sprintf
           "--random %s: expected four comma-separated fields N,B,R,SEED" spec)

(* --strategy NAME, resolved through Placement.Strategies; unknown names
   list the available strategies. *)
let strategy_arg ~default =
  Arg.(
    value
    & opt string default
    & info [ "strategy" ] ~docv:"STRAT"
        ~doc:
          "Placement strategy (see the $(b,strategies) subcommand for the \
           registered names).")

let find_strategy name =
  match Placement.Strategies.find name with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown strategy %S; available strategies: %s" name
           (String.concat ", " Placement.Strategies.names))

let strategy_term ~default =
  let resolve name =
    match find_strategy name with Ok s -> `Ok s | Error msg -> `Error (false, msg)
  in
  Term.(ret (const resolve $ strategy_arg ~default))

let plan_layout (module S : Placement.Strategy.S) ~rng inst =
  try S.plan ~rng inst with
  | Placement.Optimal.Too_large ->
      die
        (Printf.sprintf
           "strategy %s: instance too large for exhaustive search (cost %.3g); \
            use a heuristic strategy instead"
           S.name
           (let p = Placement.Instance.params inst in
            Placement.Optimal.search_cost ~n:p.Placement.Params.n
              ~r:p.Placement.Params.r ~k:p.Placement.Params.k
              ~b:p.Placement.Params.b))
  | Invalid_argument msg ->
      (* The spread families already prefix their own name. *)
      die
        (if String.starts_with ~prefix:S.name msg then msg
         else Printf.sprintf "strategy %s: %s" S.name msg)

(* ------------------------------------------------------------------ *)
(* The instance analyze and attack work on.

   Sources: --layout FILE or --strategy NAME with -n/-b (attack),
   --random N,B,R,SEED (both), or bare -n/-b (analyze).  At most one is
   given, and (n, b, r, s, k) is validated on every path, with n, b and
   r read from the layout file or the --random spec where they come
   from there. *)

type source =
  | Sized  (* bare -n/-b: parameters only *)
  | Synthetic of int  (* --random: the PRNG seed *)
  | File of string * Placement.Layout.t  (* --layout *)
  | Planned of (module Placement.Strategy.S)  (* --strategy NAME -n -b *)

type instance_args = {
  layout : string option;
  strategy : string option;
  random : string option;
  n : int option;
  b : int option;
  r : int;
  s : int;
  k : int;
}

let instance_term ?(layout = Term.const None) ?(strategy = Term.const None) ()
    =
  let size i = Arg.(value & opt (some int) None & i) in
  let make layout strategy random n b r s k =
    { layout; strategy; random; n; b; r; s; k }
  in
  Term.(
    const make $ layout $ strategy $ random_arg $ size n_info $ size b_info
    $ r_arg $ s_arg $ k_arg)

(* [missing] is the complaint when no source (not even -n and -b) is
   given. *)
let resolve_instance ~missing a =
  if List.length (List.filter Option.is_some [ a.layout; a.strategy; a.random ]) > 1
  then die "pass only one of --layout, --strategy and --random";
  let params ~n ~b ~r = check_params ~n ~b ~r ~s:a.s ~k:a.k in
  let sized complaint =
    match (a.n, a.b) with
    | Some n, Some b -> params ~n ~b ~r:a.r
    | _ -> die complaint
  in
  match (a.random, a.layout, a.strategy) with
  | Some spec, _, _ -> (
      match parse_random spec with
      | Error msg -> die msg
      | Ok (n, b, r, seed) ->
          if a.n <> None || a.b <> None then
            die "--random carries its own N and B; drop -n/-b";
          (params ~n ~b ~r, Synthetic seed))
  | None, Some file, _ -> (
      match Placement.Codec.load file with
      | Error msg -> die (Printf.sprintf "cannot load %s: %s" file msg)
      | Ok layout ->
          ( params ~n:layout.Placement.Layout.n ~b:(Placement.Layout.b layout)
              ~r:layout.Placement.Layout.r,
            File (file, layout) ))
  | None, None, Some name ->
      let s = match find_strategy name with Ok s -> s | Error msg -> die msg in
      (sized "--strategy needs -n and -b to size the instance", Planned s)
  | None, None, None -> (sized missing, Sized)

let synthetic_layout p seed =
  Placement.Random_placement.place ~rng:(Combin.Rng.create seed) p

(* ------------------------------------------------------------------ *)
(* Fault-domain topologies (--topology and friends).

   The flags resolve once the instance size is known: the tree must
   cover exactly n nodes and the level defaults to the first one above
   the nodes.  Resolving yields the instance's domain map (for the
   spread strategies) and the (tree, level, j) context of the domain
   adversary and bound. *)

let topology_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "topology" ] ~docv:"SPEC"
        ~doc:
          "Fault-domain topology, coarsest level first, e.g. \
           $(b,zone:2/rack:4/node:8) (see the $(b,topology) subcommand).  \
           The spec's counts must multiply out to -n.")

let topology_term =
  let parse = function
    | None -> `Ok None
    | Some spec -> (
        match Topology.Spec.parse spec with
        | Ok tree -> `Ok (Some tree)
        | Error msg -> `Error (false, "invalid --topology: " ^ msg))
  in
  Term.(ret (const parse $ topology_arg))

let domain_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "domain-level" ] ~docv:"NAME"
        ~doc:
          "Topology level the adversary and the spread constraint act on \
           (default: the first level above the nodes).")

let fail_domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fail-domains" ] ~docv:"J"
        ~doc:"Domain-failure budget of the topology adversary (default 1).")

let spread_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "spread" ] ~docv:"T"
        ~doc:
          "Max replicas per domain for the spread strategies (default 1).")

let check_topology_size tree ~n =
  if Topology.Tree.n tree <> n then
    die
      (Printf.sprintf
         "--topology describes %d nodes but the instance has n = %d; make the \
          spec's counts multiply out to n"
         (Topology.Tree.n tree) n)

(* [(domains, ctx)]: the instance's domain map and the domain
   adversary's (tree, level, j), both [None] without --topology. *)
let resolve_topology tree level_name fail_domains spread ~n =
  match tree with
  | None ->
      let needs flag what =
        die (Printf.sprintf "%s needs --topology SPEC to name %s" flag what)
      in
      if level_name <> None then needs "--domain-level" "a level of";
      if fail_domains <> None then
        needs "--fail-domains" "the domains it fails";
      if spread <> None then needs "--spread" "the domains it caps";
      (None, None)
  | Some tree ->
      check_topology_size tree ~n;
      let level =
        match level_name with
        | None -> Topology.Tree.default_level tree
        | Some name -> (
            match Topology.Tree.find_level tree name with
            | Some l -> l
            | None ->
                die
                  (Printf.sprintf
                     "--domain-level %s: no such level; this topology has: %s"
                     name
                     (String.concat ", "
                        (Array.to_list (Topology.Tree.level_names tree)))))
      in
      let fail_domains = Option.value fail_domains ~default:1 in
      let spread = Option.value spread ~default:1 in
      let domains = Topology.Tree.domain_count tree ~level in
      if fail_domains < 1 || fail_domains > domains then
        die
          (Printf.sprintf
             "--fail-domains %d: must be between 1 and the %d %s domain(s)"
             fail_domains domains
             (Topology.Tree.level_name tree level));
      if spread < 1 then
        die
          (Printf.sprintf "--spread %d: must allow at least 1 replica per domain"
             spread);
      ( Some (Topology.Spec.domains tree ~level ~cap:spread),
        Some (tree, level, fail_domains) )

(* --topology with the flags that act on its domains (plan, analyze,
   attack, simulate), as the resolver of the command's n. *)
let topology_args_term =
  Term.(
    const resolve_topology $ topology_term $ domain_level_arg
    $ fail_domains_arg $ spread_arg)

(* plan/analyze under --topology: the Lemma 2 domain-failure bound, as
   the envelope's "topology" field or a report line. *)
let domain_bound (p : Placement.Params.t) (tree, level, j) =
  Topology.Bound.load_report ~b:p.Placement.Params.b ~r:p.Placement.Params.r
    ~s:p.Placement.Params.s tree ~level ~j

let domain_bound_fields p = function
  | None -> []
  | Some ((tree, level, _) as ctx) ->
      let rep = domain_bound p ctx in
      [
        ( "topology",
          Telemetry.Json.Obj
            [
              ("level", Telemetry.Json.Str (Topology.Tree.level_name tree level));
              ("fail_domains", Telemetry.Json.Int rep.Topology.Bound.j);
              ("covered_nodes", Telemetry.Json.Int rep.Topology.Bound.covered_nodes);
              ("naive_nodes", Telemetry.Json.Int rep.Topology.Bound.naive_nodes);
              ( "guaranteed_available",
                Telemetry.Json.Int
                  rep.Topology.Bound.si.Placement.Analysis.lb_clamped );
            ] );
      ]

let print_domain_bound p = function
  | None -> ()
  | Some ((tree, level, j) as ctx) ->
      let rep = domain_bound p ctx in
      Fmt.pr "  domain failures: worst %d %s(s) cover <= %d node(s); any \
              load-balanced placement keeps >= %d / %d@."
        j
        (Topology.Tree.level_name tree level)
        rep.Topology.Bound.covered_nodes
        rep.Topology.Bound.si.Placement.Analysis.lb_clamped p.Placement.Params.b

(* attack/simulate: the node adversary and, under --topology, the domain
   adversary, both on one pool. *)
let run_attacks ?rng jobs layout ~s ~k topo_ctx =
  with_pool jobs (fun pool ->
      let atk = Placement.Adversary.attack ?pool ?rng layout ~s ~k in
      let datk =
        Option.map
          (fun (tree, level, j) ->
            (tree, level, j, Topology.Adversary.attack ?pool layout ~s tree ~level ~j))
          topo_ctx
      in
      (atk, datk))

let domain_attack_fields layout = function
  | None -> []
  | Some (tree, level, _, (a : Topology.Adversary.attack)) ->
      let ints xs =
        Telemetry.Json.List (List.map (fun i -> Telemetry.Json.Int i) (Array.to_list xs))
      in
      [
        ( "topology",
          Telemetry.Json.Obj
            [
              ("level", Telemetry.Json.Str (Topology.Tree.level_name tree level));
              ("failed_domains", ints a.Topology.Adversary.failed_domains);
              ("failed_nodes", ints a.Topology.Adversary.failed_nodes);
              ("failed_objects", Telemetry.Json.Int a.Topology.Adversary.failed_objects);
              ("available", Telemetry.Json.Int (Topology.Adversary.avail layout a));
              ("exact", Telemetry.Json.Bool a.Topology.Adversary.exact);
            ] );
      ]

let print_domain_attack layout = function
  | None -> ()
  | Some (tree, level, j, atk) ->
      Fmt.pr "  domain adversary (worst %d %s(s)):@." j
        (Topology.Tree.level_name tree level);
      Fmt.pr "    failed domains: %a@."
        Fmt.(brackets (array ~sep:comma int))
        atk.Topology.Adversary.failed_domains;
      Fmt.pr "    failed nodes: %a@."
        Fmt.(brackets (array ~sep:comma int))
        atk.Topology.Adversary.failed_nodes;
      Fmt.pr "    available: %d / %d (adversary %s)@."
        (Topology.Adversary.avail layout atk)
        (Placement.Layout.b layout)
        (if atk.Topology.Adversary.exact then "exact" else "heuristic")

(* ------------------------------------------------------------------ *)
(* plan *)

let plan_term =
  let run (p : Placement.Params.t) topo (module S : Placement.Strategy.S) json
      tel =
    with_io tel @@ fun () ->
    let domains, topo_ctx = topo ~n:p.Placement.Params.n in
    let inst = Placement.Instance.of_params ?domains p in
    let display = Placement.Strategies.display_name (module S) in
    let pr_avail = Placement.Instance.pr_avail inst in
    if json then begin
      let report = Placement.Strategy.report (module S) inst in
      print_envelope ~command:"plan"
        (Telemetry.Json.Obj
           ([
              ("report", Placement.Codec.report_json report);
              ("pr_avail", Telemetry.Json.Int pr_avail);
            ]
           @ domain_bound_fields p topo_ctx))
    end
    else begin
      Fmt.pr "%s placement plan for %a@." display Placement.Params.pp p;
      List.iter (fun line -> Fmt.pr "  %s@." line) (S.explain inst);
      print_domain_bound p topo_ctx;
      match S.lower_bound inst with
      | None ->
          Fmt.pr "no worst-case guarantee for this strategy (probabilistic only)@.";
          Fmt.pr "Random placement, probable availability:          %d / %d@."
            pr_avail p.Placement.Params.b
      | Some lb ->
          Fmt.pr "guaranteed available objects (worst %d failures): %d / %d@."
            p.Placement.Params.k lb p.Placement.Params.b;
          Fmt.pr "Random placement, probable availability:          %d / %d@."
            pr_avail p.Placement.Params.b;
          if lb > pr_avail then
            Fmt.pr "=> %s saves %d of the %d objects Random probably loses.@."
              display (lb - pr_avail)
              (p.Placement.Params.b - pr_avail)
          else if lb < pr_avail then
            Fmt.pr "=> Random probably does better here (by %d objects).@."
              (pr_avail - lb)
          else Fmt.pr "=> Tie.@."
    end
  in
  Term.(
    const run $ params_term $ topology_args_term
    $ strategy_term ~default:"combo" $ json_flag $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_term =
  let run args topo (module S : Placement.Strategy.S) json tel =
    with_io tel @@ fun () ->
    let p, source =
      resolve_instance args
        ~missing:"analyze needs -n and -b (or --random N,B,R,SEED)"
    in
    (* --random additionally materializes one seeded instance so the
       analytic prAvail can be read next to a realized greedy attack. *)
    let synth =
      match source with
      | Synthetic seed ->
          let layout = synthetic_layout p seed in
          let atk =
            Placement.Adversary.greedy layout ~s:p.Placement.Params.s
              ~k:p.Placement.Params.k
          in
          Some (seed, layout, atk)
      | Sized | File _ | Planned _ -> None
    in
    let domains, topo_ctx = topo ~n:p.Placement.Params.n in
    let inst = Placement.Instance.of_params ?domains p in
    let attack_cost =
      Placement.Adversary.attack_cost ~n:p.Placement.Params.n
        ~r:p.Placement.Params.r ~b:p.Placement.Params.b ~k:p.Placement.Params.k
    in
    let affordable = attack_cost <= Placement.Adversary.exact_limit in
    if json then begin
      let report = Placement.Strategy.report (module S) inst in
      let fields =
        [ ("report", Placement.Codec.report_json report) ]
        @ (if S.name = "random" then
             [ ("random", Placement.Codec.rnd_report_json
                   (Placement.Instance.rnd_report inst)) ]
           else [])
        @ [
            ( "exact_adversary_affordable",
              Telemetry.Json.Bool affordable );
            ("attack_cost", Telemetry.Json.Float attack_cost);
          ]
        @ (match synth with
          | None -> []
          | Some (seed, layout, atk) ->
              [
                ( "synthetic",
                  Telemetry.Json.Obj
                    [
                      ("seed", Telemetry.Json.Int seed);
                      ( "max_load",
                        Telemetry.Json.Int (Placement.Layout.max_load layout) );
                      ( "greedy_failed_objects",
                        Telemetry.Json.Int
                          atk.Placement.Adversary.failed_objects );
                      ( "greedy_available",
                        Telemetry.Json.Int
                          (Placement.Adversary.avail layout
                             ~s:p.Placement.Params.s atk) );
                    ] );
              ])
        @ domain_bound_fields p topo_ctx
      in
      print_envelope ~command:"analyze" (Telemetry.Json.Obj fields)
    end
    else begin
      if S.name = "random" then begin
        let rnd = Placement.Instance.rnd_report inst in
        Fmt.pr "Worst-case analysis of load-balanced Random placement@.";
        Fmt.pr "  parameters: %a@." Placement.Params.pp p;
        Fmt.pr "  per-object kill probability under a fixed worst K: %.3e@."
          rnd.Placement.Random_analysis.p_fail;
        Fmt.pr "  prAvail_rnd (Definition 6): %d / %d (%.4f)@."
          rnd.Placement.Random_analysis.pr_avail p.Placement.Params.b
          rnd.Placement.Random_analysis.fraction;
        match rnd.Placement.Random_analysis.lemma4_upper with
        | Some u -> Fmt.pr "  Lemma 4 upper bound (s = 1): %.1f@." u
        | None -> ()
      end
      else begin
        Fmt.pr "Worst-case analysis of the %s strategy@."
          (Placement.Strategies.display_name (module S));
        Fmt.pr "  parameters: %a@." Placement.Params.pp p;
        List.iter (fun line -> Fmt.pr "  %s@." line) (S.explain inst);
        (match S.lower_bound inst with
        | Some lb ->
            Fmt.pr "  worst-case guarantee (Lemmas 2-3): %d / %d@." lb
              p.Placement.Params.b
        | None -> Fmt.pr "  no worst-case guarantee@.");
        Fmt.pr "  upper bound for any placement: %d / %d@."
          (Placement.Analysis.ub_avail_any ~b:p.Placement.Params.b
             ~r:p.Placement.Params.r ~s:p.Placement.Params.s
             ~n:p.Placement.Params.n ~k:p.Placement.Params.k)
          p.Placement.Params.b;
        Fmt.pr "  exact adversary affordable: %b (estimated work %.3g)@."
          affordable attack_cost
      end;
      (match synth with
      | None -> ()
      | Some (seed, layout, atk) ->
          Fmt.pr "  synthetic instance (seed %d): max load %d@." seed
            (Placement.Layout.max_load layout);
          Fmt.pr "  greedy attack on it leaves: %d / %d@."
            (Placement.Adversary.avail layout ~s:p.Placement.Params.s atk)
            p.Placement.Params.b);
      print_domain_bound p topo_ctx
    end
  in
  Term.(
    const run $ instance_term () $ topology_args_term
    $ strategy_term ~default:"random" $ json_flag $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* designs *)

(* designs and gap: -x/-r name designs of strength x+1 with blocks of r
   points, so 0 <= x < r. *)
let design_shape_term =
  let x_arg =
    Arg.(value & opt int 1 & info [ "x" ] ~docv:"X" ~doc:"Overlap bound (strength t = x+1).")
  in
  let check x r =
    ret_params
      (if r <= 0 then Error (replicas_error r)
       else if x < 0 then
         Error
           (Printf.sprintf
              "x = %d: -x must be at least 0 (the design strength x+1 is at \
               least 1)"
              x)
       else if x >= r then
         Error
           (Printf.sprintf
              "x = %d with r = %d: a design of strength x+1 needs blocks of at \
               least x+1 points, so -x must satisfy 0 <= x < r (lower -x or \
               raise -r/--replicas)"
              x r)
       else Ok (x, r))
  in
  Term.(ret (const check $ x_arg $ r_arg))

let max_mu_arg =
  Arg.(value & opt int 1 & info [ "max-mu" ] ~docv:"MU" ~doc:"Largest design multiplicity.")

let designs_term =
  let max_v_arg =
    Arg.(value & opt int 100 & info [ "max-v" ] ~docv:"V" ~doc:"Largest design size to list.")
  in
  let run (x, r) max_v max_mu =
    setup_logs ();
    let entries =
      Designs.Registry.entries ~max_mu ~strength:(x + 1) ~block_size:r ~max_v ()
    in
    Fmt.pr "Catalogue of %d-(v, %d, mu) designs with v <= %d, mu <= %d@."
      (x + 1) r max_v max_mu;
    List.iter
      (fun (e : Designs.Registry.entry) ->
        Fmt.pr "  v=%-4d mu=%-2d blocks=%-8d %-30s %s@." e.v e.mu e.blocks
          e.name
          (if Designs.Registry.is_materialized e then "[materialized]"
           else "[literature]"))
      entries
  in
  Term.(const run $ design_shape_term $ max_v_arg $ max_mu_arg)

(* ------------------------------------------------------------------ *)
(* gap *)

let gap_term =
  let run n (x, r) max_mu =
    setup_logs ();
    match
      Designs.Chunking.best_plan ~max_mu ~strength:(x + 1) ~block_size:r ~n ()
    with
    | None -> Fmt.pr "No chunk plan found for n=%d, x=%d, r=%d.@." n x r
    | Some plan ->
        Fmt.pr "Best chunk plan for n=%d, x=%d, r=%d (mu <= %d):@." n x r max_mu;
        List.iter
          (fun (e : Designs.Registry.entry) ->
            Fmt.pr "  chunk: %s (v=%d, mu=%d, %d blocks)@." e.name e.v e.mu
              e.blocks)
          plan.Designs.Chunking.chunks;
        Fmt.pr "  lambda=%d capacity=%d ideal=%d gap=%.4f@."
          plan.Designs.Chunking.lambda plan.Designs.Chunking.capacity
          (Designs.Chunking.ideal_capacity ~strength:(x + 1) ~block_size:r
             ~lambda:plan.Designs.Chunking.lambda n)
          (Designs.Chunking.capacity_gap ~strength:(x + 1) ~block_size:r ~n plan)
  in
  Term.(const run $ n_arg $ design_shape_term $ max_mu_arg)

(* ------------------------------------------------------------------ *)
(* attack *)

let print_attack ~source layout ~s attack =
  Fmt.pr "Worst-case attack on %s (b=%d, n=%d, r=%d)@." source
    (Placement.Layout.b layout)
    layout.Placement.Layout.n layout.Placement.Layout.r;
  Fmt.pr "  failed nodes: %a@."
    Fmt.(brackets (array ~sep:comma int))
    attack.Placement.Adversary.failed_nodes;
  Fmt.pr "  available objects: %d / %d (adversary %s)@."
    (Placement.Adversary.avail layout ~s attack)
    (Placement.Layout.b layout)
    (if attack.Placement.Adversary.exact then "exact" else "heuristic")

let attack_term =
  let layout_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "layout" ] ~docv:"FILE" ~doc:"Layout file written by simulate --out.")
  in
  let strategy_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "strategy" ] ~docv:"STRAT"
          ~doc:
            "Attack a freshly planned strategy layout instead of a file \
             (requires -n and -b).")
  in
  let run args seed topo jobs json tel =
    with_io tel @@ fun () ->
    let required =
      "one of --layout FILE, --strategy NAME or --random N,B,R,SEED is required"
    in
    let p, source = resolve_instance args ~missing:required in
    let s = p.Placement.Params.s and k = p.Placement.Params.k in
    let domains, topo_ctx = topo ~n:p.Placement.Params.n in
    let source, layout =
      match source with
      | Sized -> die required
      | Synthetic seed ->
          ( Printf.sprintf "a synthetic random instance (seed %d)" seed,
            synthetic_layout p seed )
      | File (file, layout) -> (file, layout)
      | Planned (module S) -> (
          let rng = Combin.Rng.create seed in
          ( Printf.sprintf "a %s placement"
              (Placement.Strategies.display_name (module S)),
            plan_layout (module S) ~rng
              (Placement.Instance.of_params ?domains p) ))
    in
    let attack, domain_attack = run_attacks jobs layout ~s ~k topo_ctx in
    if json then
      print_envelope ~command:"attack"
        (Telemetry.Json.Obj
           ([
              ("source", Telemetry.Json.Str source);
              ("attack", Placement.Codec.attack_json ~s layout attack);
            ]
           @ domain_attack_fields layout domain_attack))
    else begin
      print_attack ~source layout ~s attack;
      print_domain_attack layout domain_attack
    end
  in
  Term.(
    const run
    $ instance_term ~layout:layout_arg ~strategy:strategy_opt_arg ()
    $ seed_arg ~default:42 ~doc:"PRNG seed (with --strategy)."
    $ topology_args_term $ jobs_term $ json_flag $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_term =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also export the layout to a file.")
  in
  let run (p : Placement.Params.t) topo (module S : Placement.Strategy.S) seed
      out jobs json tel =
    with_io tel @@ fun () ->
    let domains, topo_ctx = topo ~n:p.Placement.Params.n in
    let inst = Placement.Instance.of_params ?domains p in
    let rng = Combin.Rng.create seed in
    let layout = plan_layout (module S) ~rng inst in
    let attack, domain_attack =
      run_attacks ~rng jobs layout ~s:p.Placement.Params.s
        ~k:p.Placement.Params.k topo_ctx
    in
    if json then
      print_envelope ~command:"simulate"
        (Telemetry.Json.Obj
           ([
              ("strategy", Telemetry.Json.Str S.name);
              ("params", Placement.Codec.params_json p);
              ( "attack",
                Placement.Codec.attack_json ~s:p.Placement.Params.s layout
                  attack );
            ]
           @ domain_attack_fields layout domain_attack))
    else begin
      Fmt.pr "Simulated worst-case attack on a %s placement@."
        (Placement.Strategies.display_name (module S));
      Fmt.pr "  failed nodes: %a@."
        Fmt.(brackets (array ~sep:comma int))
        attack.Placement.Adversary.failed_nodes;
      Fmt.pr "  failed objects: %d / %d  (adversary %s)@."
        attack.Placement.Adversary.failed_objects p.Placement.Params.b
        (if attack.Placement.Adversary.exact then "exact" else "heuristic");
      Fmt.pr "  available: %d@."
        (Placement.Adversary.avail layout ~s:p.Placement.Params.s attack);
      print_domain_attack layout domain_attack
    end;
    match out with
    | None -> ()
    | Some path ->
        Placement.Codec.save path layout;
        if not json then Fmt.pr "  layout written to %s@." path
  in
  Term.(
    const run $ params_term $ topology_args_term
    $ strategy_term ~default:"combo" $ seed_arg ~default:42 ~doc:"PRNG seed."
    $ out_arg $ jobs_term $ json_flag $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* strategies *)

let strategies_term =
  let run () =
    setup_logs ();
    Fmt.pr "Registered placement strategies:@.";
    List.iter
      (fun (module S : Placement.Strategy.S) ->
        Fmt.pr "  %-10s %-40s %s@." S.name
          (Printf.sprintf "[%s]"
             (String.concat ","
                (List.map Placement.Strategy.capability_name S.capabilities)))
          S.describe)
      Placement.Strategies.all
  in
  Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* recommend *)

let recommend_term =
  let target_arg =
    Arg.(
      value
      & opt float 99.9
      & info [ "target" ] ~docv:"PCT"
          ~doc:"Required guaranteed availability, as a percentage of b.")
  in
  let run n b k target =
    setup_logs ();
    Fmt.pr
      "Cheapest (r, s) guaranteeing >= %.2f%% of %d objects against the worst %d of %d nodes@."
      target b k n;
    let found = ref false in
    List.iter
      (fun r ->
        if not !found && r <= n then
          List.iter
            (fun s ->
              if (not !found) && s <= r && k >= s then begin
                match Placement.Params.validate { Placement.Params.b; r; s; n; k } with
                | Error _ -> ()
                | Ok p ->
                    let cfg =
                      Placement.Instance.combo_config (Placement.Instance.of_params p)
                    in
                    let pct =
                      100.0 *. float_of_int cfg.Placement.Combo.lb /. float_of_int b
                    in
                    Fmt.pr "  r=%d s=%d: guarantee %d (%.3f%%)%s@." r s
                      cfg.Placement.Combo.lb pct
                      (if pct >= target then "  <- RECOMMENDED" else "");
                    if pct >= target then found := true
              end)
            (List.sort_uniq compare [ r; r - (r / 2); 2; 1 ]
            |> List.rev) (* read-any first, then majority/2/write-all *))
      [ 2; 3; 4; 5 ];
    if not !found then
      Fmt.pr "  no configuration with r <= 5 reaches the target; lower the target or k.@."
  in
  let objects_term =
    let check b = ret_params (if b <= 0 then Error (objects_error b) else Ok b) in
    Term.(ret (const check $ b_arg))
  in
  Term.(const run $ n_arg $ objects_term $ k_arg $ target_arg)

(* ------------------------------------------------------------------ *)
(* topology *)

let topology_cmd_term =
  let spec_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:
            "Topology spec, coarsest level first: NAME:COUNT/NAME:COUNT/... \
             e.g. $(b,zone:2/rack:4/node:8).")
  in
  let run spec json =
    setup_logs ();
    match Topology.Spec.parse spec with
    | Error msg -> die ("invalid topology spec: " ^ msg)
    | Ok tree ->
        if json then print_envelope ~command:"topology" (Topology.Spec.json tree)
        else begin
          Fmt.pr "%s@." (Topology.Spec.summary tree);
          for level = Topology.Tree.depth tree - 1 downto 0 do
            let sizes = Topology.Tree.sizes tree ~level in
            let lo = Array.fold_left min sizes.(0) sizes in
            let hi = Array.fold_left max sizes.(0) sizes in
            Fmt.pr "  %-8s %6d domain(s), %s@."
              (Topology.Tree.level_name tree level)
              (Topology.Tree.domain_count tree ~level)
              (if lo = hi then Printf.sprintf "%d node(s) each" lo
               else Printf.sprintf "%d-%d node(s)" lo hi)
          done
        end
  in
  Term.(const run $ spec_pos $ json_flag)

(* ------------------------------------------------------------------ *)
(* churn *)

let join_weight_arg =
  Arg.(
    value
    & opt int 0
    & info [ "join-weight" ] ~docv:"W"
        ~doc:
          "Relative weight of node-join events in the synthetic stream \
           (default 0: no membership churn, byte-identical to historical \
           streams).")

let leave_weight_arg =
  Arg.(
    value
    & opt int 0
    & info [ "leave-weight" ] ~docv:"W"
        ~doc:
          "Relative weight of permanent node-leave events in the synthetic \
           stream (default 0).")

(* Shared by churn (batch) and serve (online): build the engine after
   the usual parameter/topology validation. *)
let make_engine ~n ~r ~s ~k topology =
  ignore (check_params ~n ~b:1 ~r ~s ~k);
  Option.iter (check_topology_size ~n) topology;
  match Dsim.Churn.create ?topology ~n ~r ~s ~k () with
  | eng -> eng
  | exception Invalid_argument msg -> die msg

(* An event file (churn --events, dst --events), parsed or rejected with
   its FILE:LINE error. *)
let read_events path =
  let content =
    match open_in_bin path with
    | exception Sys_error msg -> die ("cannot read " ^ msg)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Dsim.Event.parse_string content with
  | Ok evs -> evs
  | Error err -> die (Dsim.Event.format_error ~file:path err)

let churn_term =
  let count_arg =
    Arg.(
      value
      & opt int 1000
      & info [ "count" ] ~docv:"M"
          ~doc:"Number of synthetic events to generate (ignored with \
                $(b,--events)).")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Replay $(docv) instead of a seeded stream: one event per line — \
             $(b,fail N), $(b,recover N), $(b,fail-domain LEVEL D), \
             $(b,join N), $(b,leave N), $(b,create), $(b,delete ID), \
             $(b,measure LABEL) — with blank lines and #-comments ignored.")
  in
  let responses_arg =
    Arg.(
      value
      & flag
      & info [ "responses" ]
          ~doc:
            "Answer the $(b,--events) file as a serve request script: one \
             single-line placement/v1 envelope per line (queries and stats \
             allowed), byte-identical to piping the same script into \
             $(b,placement-tool serve).")
  in
  let run n r s k topo seed count measure_every events_file join_weight
      leave_weight responses json tel =
    with_io tel @@ fun () ->
    require_non_negative "--count" "the event count" count;
    require_non_negative "--measure-every" "the measurement period"
      measure_every;
    if join_weight < 0 || leave_weight < 0 then
      die "--join-weight/--leave-weight must be non-negative";
    let eng = make_engine ~n ~r ~s ~k topo in
    (* One entry point into the engine: both modes drive the same Api
       session the serve daemon does, so the counters in the summary
       are the session's own. *)
    let session = Dsim.Api.make eng in
    if responses then begin
      (* Batch replay of the serve protocol: same parser, same executor,
         same wire format — diffable byte-for-byte against the daemon. *)
      let path =
        match events_file with
        | Some path -> path
        | None -> die "--responses needs --events FILE (the request script)"
      in
      let fd =
        match Unix.openfile path [ Unix.O_RDONLY ] 0 with
        | fd -> fd
        | exception Unix.Unix_error (err, _, _) ->
            die
              (Printf.sprintf "cannot read %s: %s" path
                 (Unix.error_message err))
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> ignore (Dsim.Serve.run session ~input:fd ~output:Unix.stdout))
    end
    else begin
    let events, source_json, source_human =
      match events_file with
      | Some path ->
          let events = read_events path in
          ( events,
            Telemetry.Json.Obj
              [
                ("kind", Telemetry.Json.Str "file");
                ("path", Telemetry.Json.Str path);
                ("events", Telemetry.Json.Int (List.length events));
              ],
            Printf.sprintf "event file %s (%d events)" path
              (List.length events) )
      | None ->
          let events =
            Dsim.Event.seeded
              ~rng:(Combin.Rng.create seed)
              ~n ~join_weight ~leave_weight ~count ~measure_every ()
          in
          ( events,
            Telemetry.Json.Obj
              ([
                 ("kind", Telemetry.Json.Str "seeded");
                 ("seed", Telemetry.Json.Int seed);
                 ("count", Telemetry.Json.Int count);
                 ("measure_every", Telemetry.Json.Int measure_every);
               ]
              @
              if join_weight > 0 || leave_weight > 0 then
                [
                  ("join_weight", Telemetry.Json.Int join_weight);
                  ("leave_weight", Telemetry.Json.Int leave_weight);
                ]
              else []),
            Printf.sprintf
              "seeded stream (seed %d, %d events, measure every %d)%s" seed
              count measure_every
              (if join_weight > 0 || leave_weight > 0 then
                 Printf.sprintf ", join/leave weights %d/%d" join_weight
                   leave_weight
               else "") )
    in
    let rows = ref [] in
    let min_worst = ref max_int in
    List.iter
      (fun ev ->
        let step =
          match Dsim.Api.exec session (Dsim.Api.Apply ev) with
          | Dsim.Api.Applied step -> step
          | Dsim.Api.Rejected { message; _ } -> die message
          | _ -> assert false
        in
        (* Per-event incremental worst-case re-score: no rebuild, and
           the minimum over each measurement window surfaces transient
           dips that measurement-time-only scoring would miss. *)
        let rs = Dsim.Churn.rescore eng in
        if rs.Dsim.Churn.worst_available < !min_worst then
          min_worst := rs.Dsim.Churn.worst_available;
        match ev with
        | Dsim.Event.Measure label ->
            rows :=
              ( step.Dsim.Churn.seq,
                label,
                step.Dsim.Churn.live,
                step.Dsim.Churn.available,
                step.Dsim.Churn.failed_nodes,
                step.Dsim.Churn.lower_bound,
                Dsim.Churn.moved_replicas eng,
                rs.Dsim.Churn.worst_available,
                !min_worst )
              :: !rows;
            min_worst := max_int
        | _ -> ())
      events;
    let rows = List.rev !rows in
    let final = Dsim.Churn.rescore eng in
    let st = Dsim.Api.stats session in
    if json then
      print_envelope ~command:"churn"
        (Telemetry.Json.Obj
           [
             ( "params",
               Telemetry.Json.Obj
                 [
                   ("n", Telemetry.Json.Int n);
                   ("r", Telemetry.Json.Int r);
                   ("s", Telemetry.Json.Int s);
                   ("k", Telemetry.Json.Int k);
                 ] );
             ("source", source_json);
             ( "rows",
               Telemetry.Json.List
                 (List.map
                    (fun ( seq,
                           label,
                           live,
                           avail,
                           failed,
                           lb,
                           moved,
                           worst,
                           min_worst ) ->
                      Telemetry.Json.Obj
                        [
                          ("seq", Telemetry.Json.Int seq);
                          ("label", Telemetry.Json.Str label);
                          ("live", Telemetry.Json.Int live);
                          ("available", Telemetry.Json.Int avail);
                          ("failed_nodes", Telemetry.Json.Int failed);
                          ("lower_bound", Telemetry.Json.Int lb);
                          ("moved_replicas", Telemetry.Json.Int moved);
                          ("worst_available", Telemetry.Json.Int worst);
                          ( "min_worst_available",
                            Telemetry.Json.Int min_worst );
                        ])
                    rows) );
             ( "summary",
               Telemetry.Json.Obj
                 ((* Echo the generator seed so a reported run is
                     reproducible from its summary alone (file replays
                     carry the path in "source" instead). *)
                  (match events_file with
                  | None -> [ ("seed", Telemetry.Json.Int seed) ]
                  | Some _ -> [])
                 @ [
                   ("events", Telemetry.Json.Int (Dsim.Churn.events eng));
                   ("creates", Telemetry.Json.Int st.Dsim.Api.creates);
                   ("deletes", Telemetry.Json.Int st.Dsim.Api.deletes);
                   ("node_fails", Telemetry.Json.Int st.Dsim.Api.node_fails);
                   ("node_recovers", Telemetry.Json.Int st.Dsim.Api.node_recovers);
                   ("domain_fails", Telemetry.Json.Int st.Dsim.Api.domain_fails);
                   ("joins", Telemetry.Json.Int st.Dsim.Api.joins);
                   ("leaves", Telemetry.Json.Int st.Dsim.Api.leaves);
                   ("measures", Telemetry.Json.Int st.Dsim.Api.measures);
                   ( "moved_replicas",
                     Telemetry.Json.Int (Dsim.Churn.moved_replicas eng) );
                   ("live", Telemetry.Json.Int (Dsim.Churn.live eng));
                   ("available", Telemetry.Json.Int (Dsim.Churn.available eng));
                   ( "worst_available",
                     Telemetry.Json.Int final.Dsim.Churn.worst_available );
                   ( "lower_bound",
                     Telemetry.Json.Int (Dsim.Churn.lower_bound eng) );
                 ]) );
           ])
    else begin
      Fmt.pr "Continuous churn replay on n=%d nodes (r=%d, s=%d, k=%d)@." n r
        s k;
      Fmt.pr "  source: %s@." source_human;
      List.iter
        (fun (seq, label, live, avail, failed, lb, moved, worst, min_worst) ->
          Fmt.pr
            "  [%s] seq=%d live=%d avail=%d worst=%d min_worst=%d lb=%d \
             failed_nodes=%d moved=%d@."
            label seq live avail worst min_worst lb failed moved)
        rows;
      Fmt.pr
        "  events: %d (%d creates, %d deletes, %d fails, %d recovers, %d \
         domain, %d joins, %d leaves, %d measures)@."
        (Dsim.Churn.events eng)
        st.Dsim.Api.creates st.Dsim.Api.deletes st.Dsim.Api.node_fails
        st.Dsim.Api.node_recovers st.Dsim.Api.domain_fails st.Dsim.Api.joins
        st.Dsim.Api.leaves st.Dsim.Api.measures;
      Fmt.pr
        "  moved replicas: %d (r=%d per create, at most r*load per leave, \
         none otherwise)@."
        (Dsim.Churn.moved_replicas eng)
        r;
      Fmt.pr
        "  final: live=%d available=%d worst-case available=%d lower \
         bound=%d@."
        (Dsim.Churn.live eng)
        (Dsim.Churn.available eng)
        final.Dsim.Churn.worst_available
        (Dsim.Churn.lower_bound eng)
    end
    end
  in
  Term.(
    const run $ n_arg $ r_arg $ s_arg $ k_arg $ topology_term
    $ seed_arg ~default:42 ~doc:"PRNG seed of the synthetic event stream."
    $ count_arg
    $ measure_every_arg ~default:100
        ~doc:
          "Emit a measurement row every $(docv) synthetic events (0 disables \
           the pulse; ignored with $(b,--events), where $(b,measure) lines \
           drive the rows)."
    $ events_arg $ join_weight_arg $ leave_weight_arg $ responses_arg
    $ json_flag $ telemetry_term)

let serve_term =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) and serve \
             connections one at a time against a single long-lived engine \
             (default: serve stdin/stdout once).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt float 0.
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "End the session gracefully when nothing arrives for $(docv) \
             seconds (0 disables the idle timeout).")
  in
  let max_events_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-events" ] ~docv:"M"
          ~doc:
            "Guard rail: refuse further events after $(docv) have been \
             applied and drain the session.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "snapshot-every" ] ~docv:"E"
          ~doc:
            "Emit a snapshot envelope (running stats) after every $(docv) \
             applied events.")
  in
  let run n r s k topo socket timeout max_events snapshot_every tel =
    with_io tel @@ fun () ->
    Option.iter (require_non_negative "--max-events" "the cap") max_events;
    (match snapshot_every with
    | Some e when e <= 0 ->
        die
          (Printf.sprintf "--snapshot-every %d: the period must be positive" e)
    | _ -> ());
    if timeout < 0. then
      die
        (Printf.sprintf "--timeout %g: the idle timeout must be non-negative"
           timeout);
    let eng = make_engine ~n ~r ~s ~k topo in
    (* One session for the daemon's lifetime: a reconnecting client sees
       the same engine and the same running stats. *)
    let session = Dsim.Api.make eng in
    Dsim.Serve.install_signals ();
    let serve_fds ~input ~output =
      Dsim.Serve.run ?max_events ?snapshot_every ~timeout session ~input
        ~output
    in
    match socket with
    | None ->
        let outcome = serve_fds ~input:Unix.stdin ~output:Unix.stdout in
        Logs.info (fun m ->
            m "serve session over stdin ended (%s): %d requests, %d responses"
              (Dsim.Serve.reason_label outcome.Dsim.Serve.reason)
              (Dsim.Api.stats session).Dsim.Api.requests
              outcome.Dsim.Serve.responses)
    | Some path ->
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (if Sys.file_exists path then
           try Unix.unlink path with Unix.Unix_error _ -> ());
        (try
           Unix.bind sock (Unix.ADDR_UNIX path);
           Unix.listen sock 8
         with Unix.Unix_error (err, _, _) ->
           die
             (Printf.sprintf "cannot listen on %s: %s" path
                (Unix.error_message err)));
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close sock with Unix.Unix_error _ -> ());
            try Unix.unlink path with Unix.Unix_error _ -> ())
          (fun () ->
            Logs.app (fun m -> m "serving on %s" path);
            let running = ref true in
            while !running && not (Dsim.Serve.stop_requested ()) do
              (* Poll accept so a delivered signal is noticed within a
                 second even with no client connecting. *)
              match Unix.select [ sock ] [] [] 1.0 with
              | [], _, _ -> ()
              | _ -> (
                  match Unix.accept sock with
                  | client, _ ->
                      let outcome =
                        Fun.protect
                          ~finally:(fun () ->
                            try Unix.close client
                            with Unix.Unix_error _ -> ())
                          (fun () ->
                            serve_fds ~input:client ~output:client)
                      in
                      Logs.info (fun m ->
                          m "connection ended (%s): %d requests"
                            (Dsim.Serve.reason_label
                               outcome.Dsim.Serve.reason)
                            (Dsim.Api.stats session).Dsim.Api.requests);
                      (match outcome.Dsim.Serve.reason with
                      | Dsim.Serve.Signal | Dsim.Serve.Max_events ->
                          running := false
                      | Dsim.Serve.Eof | Dsim.Serve.Timeout -> ())
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            done)
  in
  Term.(
    const run $ n_arg $ r_arg $ s_arg $ k_arg $ topology_term $ socket_arg
    $ timeout_arg $ max_events_arg $ snapshot_arg $ telemetry_term)

let dst_term =
  let n_arg =
    Arg.(
      value
      & opt int 24
      & info [ "n" ] ~docv:"N" ~doc:"Number of nodes in each simulation.")
  in
  let runs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "runs" ] ~docv:"RUNS"
          ~doc:"Seeds per (profile, strategy) combination.")
  in
  let steps_arg =
    Arg.(
      value
      & opt int 300
      & info [ "steps" ] ~docv:"STEPS"
          ~doc:"Weighted event draws per simulation.")
  in
  let profile_arg =
    Arg.(
      value
      & opt string "steady"
      & info [ "profile" ] ~docv:"NAMES"
          ~doc:
            (Printf.sprintf
               "Comma-separated scenario profiles to sweep: %s."
               (String.concat ", " Dst.Profile.names)))
  in
  let strategy_arg =
    Arg.(
      value
      & opt string "combo"
      & info [ "strategy" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated strategies whose auto-discovered \
             strategy/NAME invariants run at each pulse ($(b,none) checks \
             only the engine invariants).")
  in
  let inject_arg =
    Arg.(
      value
      & opt int 0
      & info [ "inject" ] ~docv:"RATE"
          ~doc:
            "Arm fault injection: every registered dst/* point fires with \
             probability 1/RATE, deterministically from the run seed (0 \
             disarms).")
  in
  let break_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "break" ] ~docv:"NAMES"
          ~doc:
            "Enable comma-separated canary (deliberately broken) \
             invariants — shrinker drills.")
  in
  let shrink_flag =
    Arg.(
      value
      & flag
      & info [ "shrink" ]
          ~doc:
            "On the first violation, ddmin-minimize its history and write \
             a replayable repro file ($(b,--repro)).")
  in
  let repro_arg =
    Arg.(
      value
      & opt string "dst_repro.events"
      & info [ "repro" ] ~docv:"FILE"
          ~doc:"Where $(b,--shrink) writes the minimized repro.")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Replay $(docv) (one event per line, #-comments ignored — the \
             format the shrinker writes) instead of generating a history; \
             uses the base seed and the first profile/strategy only.")
  in
  let run n r s k seed runs steps measure_every profiles_s strategies_s
      inject break_s shrink repro_path events_file jobs json tel =
    with_io tel @@ fun () ->
    ignore (check_params ~n ~b:1 ~r ~s ~k);
    if runs < 1 then
      die (Printf.sprintf "--runs %d: need at least one run" runs);
    require_non_negative "--steps" "the step count" steps;
    require_non_negative "--measure-every" "the measurement period"
      measure_every;
    require_non_negative "--inject" "the rate" inject;
    let split_names what s =
      match
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      with
      | [] -> die (Printf.sprintf "%s needs at least one name" what)
      | names -> names
    in
    let profiles =
      List.map
        (fun nm ->
          match Dst.Profile.find nm with
          | Some p -> p
          | None ->
              die
                (Printf.sprintf "unknown profile %S; available: %s" nm
                   (String.concat ", " Dst.Profile.names)))
        (split_names "--profile" profiles_s)
    in
    let strategies =
      List.map
        (fun nm ->
          if nm = "none" then None
          else
            match find_strategy nm with
            | Ok m -> Some m
            | Error msg -> die (msg ^ ", none"))
        (split_names "--strategy" strategies_s)
    in
    let breaks =
      match break_s with
      | None -> []
      | Some s ->
          let names = split_names "--break" s in
          List.iter
            (fun nm ->
              if Dst.Invariant.find_canary nm = None then
                die
                  (Printf.sprintf
                     "unknown canary invariant %S; available: %s" nm
                     (String.concat ", " Dst.Invariant.canary_names)))
            names;
          names
    in
    let profile_names =
      List.map (fun (p : Dst.Profile.t) -> p.Dst.Profile.name) profiles
    in
    let strategy_names =
      List.map
        (function
          | None -> "none" | Some (module S : Placement.Strategy.S) -> S.name)
        strategies
    in
    let json_strings names =
      Telemetry.Json.List (List.map (fun nm -> Telemetry.Json.Str nm) names)
    in
    let mk_config cfg_seed profile strategy =
      {
        Dst.Harness.n;
        r;
        s;
        k;
        seed = cfg_seed;
        steps;
        measure_every;
        profile;
        strategy;
        inject_rate = inject;
        break_invariants = breaks;
        extra_invariants = [];
      }
    in
    let replay_history =
      match events_file with
      | None -> None
      | Some path -> Some (read_events path)
    in
    let configs =
      match replay_history with
      | Some _ ->
          [| mk_config seed (List.hd profiles) (List.hd strategies) |]
      | None ->
          List.concat_map
            (fun profile ->
              List.concat_map
                (fun strategy ->
                  List.init runs (fun i ->
                      mk_config (seed + i) profile strategy))
                strategies)
            profiles
          |> Array.of_list
    in
    let outcomes =
      match replay_history with
      | Some history -> [| Dst.Harness.run ~history configs.(0) |]
      | None ->
          (* The sweep fans whole runs through the pool; per-domain
             injection arming keeps the outcomes bit-identical at any
             -j (the cram suite pins -j1 ≡ -j4). *)
          with_pool jobs @@ fun pool -> Dst.Harness.sweep ?pool configs
    in
    let violations =
      Array.fold_left
        (fun acc (o : Dst.Harness.outcome) ->
          acc + match o.Dst.Harness.violation with Some _ -> 1 | None -> 0)
        0 outcomes
    in
    (* Shrink the first violating run: regenerate (or reuse) its
       history, minimize, and write a replayable repro file. *)
    let shrink_result =
      if not (shrink && violations > 0) then None
      else
        let idx = ref (-1) in
        Array.iteri
          (fun i (o : Dst.Harness.outcome) ->
            if !idx < 0 && o.Dst.Harness.violation <> None then idx := i)
          outcomes;
        let config = configs.(!idx) in
        let v = Option.get outcomes.(!idx).Dst.Harness.violation in
        let history =
          match replay_history with
          | Some h -> h
          | None -> Dst.Harness.default_history config
        in
        let res =
          Dst.Shrink.run ~config ~history
            ~invariant:v.Dst.Harness.invariant
        in
        Dst.Shrink.write_repro ~path:repro_path ~config res;
        Some (config, res)
    in
    let violation_json (v : Dst.Harness.violation) =
      Telemetry.Json.Obj
        [
          ("invariant", Telemetry.Json.Str v.Dst.Harness.invariant);
          ("message", Telemetry.Json.Str v.Dst.Harness.message);
          ("step_index", Telemetry.Json.Int v.Dst.Harness.step_index);
          ("event", Telemetry.Json.Str v.Dst.Harness.event_line);
        ]
    in
    let outcome_json (o : Dst.Harness.outcome) =
      Telemetry.Json.Obj
        [
          ("seed", Telemetry.Json.Int o.Dst.Harness.seed);
          ("profile", Telemetry.Json.Str o.Dst.Harness.profile);
          ( "strategy",
            match o.Dst.Harness.strategy with
            | None -> Telemetry.Json.Null
            | Some nm -> Telemetry.Json.Str nm );
          ("events", Telemetry.Json.Int o.Dst.Harness.events);
          ("applied", Telemetry.Json.Int o.Dst.Harness.applied);
          ("rejected", Telemetry.Json.Int o.Dst.Harness.rejected);
          ( "injected_checks",
            Telemetry.Json.Int o.Dst.Harness.injected_checks );
          ("injected_fired", Telemetry.Json.Int o.Dst.Harness.injected_fired);
          ( "min_worst_available",
            Telemetry.Json.Int o.Dst.Harness.min_worst_available );
          ("final_live", Telemetry.Json.Int o.Dst.Harness.final_live);
          ( "final_available",
            Telemetry.Json.Int o.Dst.Harness.final_available );
          ( "final_lower_bound",
            Telemetry.Json.Int o.Dst.Harness.final_lower_bound );
          ( "violation",
            match o.Dst.Harness.violation with
            | None -> Telemetry.Json.Null
            | Some v -> violation_json v );
        ]
    in
    if json then
      print_envelope ~command:"dst"
        (Telemetry.Json.Obj
           ([
              ( "params",
                Telemetry.Json.Obj
                  [
                    ("n", Telemetry.Json.Int n);
                    ("r", Telemetry.Json.Int r);
                    ("s", Telemetry.Json.Int s);
                    ("k", Telemetry.Json.Int k);
                  ] );
              ( "config",
                Telemetry.Json.Obj
                  ([
                     ("seed", Telemetry.Json.Int seed);
                     ("runs", Telemetry.Json.Int runs);
                     ("steps", Telemetry.Json.Int steps);
                     ("measure_every", Telemetry.Json.Int measure_every);
                     ("inject_rate", Telemetry.Json.Int inject);
                     ("profiles", json_strings profile_names);
                     ("strategies", json_strings strategy_names);
                   ]
                  @ (match breaks with
                    | [] -> []
                    | _ -> [ ("break", json_strings breaks) ])
                  @
                  match events_file with
                  | None -> []
                  | Some path -> [ ("events", Telemetry.Json.Str path) ]) );
              ( "runs",
                Telemetry.Json.List
                  (Array.to_list (Array.map outcome_json outcomes)) );
              ( "summary",
                Telemetry.Json.Obj
                  [
                    ("runs", Telemetry.Json.Int (Array.length outcomes));
                    ("violations", Telemetry.Json.Int violations);
                  ] );
            ]
           @
           match shrink_result with
           | None -> []
           | Some (_, res) ->
               [
                 ( "shrink",
                   Telemetry.Json.Obj
                     [
                       ( "invariant",
                         Telemetry.Json.Str
                           res.Dst.Shrink.violation.Dst.Harness.invariant );
                       ( "events",
                         Telemetry.Json.Int
                           (List.length res.Dst.Shrink.history) );
                       ( "candidates",
                         Telemetry.Json.Int res.Dst.Shrink.candidates );
                       ("repro", Telemetry.Json.Str repro_path);
                     ] );
               ]))
    else begin
      Fmt.pr "Deterministic simulation sweep on n=%d nodes (r=%d, s=%d, k=%d)@."
        n r s k;
      (match replay_history with
      | Some h ->
          Fmt.pr "  replaying %s (%d events)@."
            (Option.get events_file) (List.length h)
      | None ->
          Fmt.pr
            "  config: seeds %d..%d, profiles %s, strategies %s, %d steps, \
             measure every %d, inject %s@."
            seed
            (seed + runs - 1)
            (String.concat "," profile_names)
            (String.concat "," strategy_names)
            steps measure_every
            (if inject > 0 then Printf.sprintf "1/%d" inject else "off"));
      Array.iter
        (fun (o : Dst.Harness.outcome) ->
          Fmt.pr
            "  [seed %d %s/%s] %d events, %d applied, %d rejected, inject \
             %d/%d, min worst %d, final live=%d avail=%d lb=%d %s@."
            o.Dst.Harness.seed o.Dst.Harness.profile
            (Option.value o.Dst.Harness.strategy ~default:"none")
            o.Dst.Harness.events o.Dst.Harness.applied
            o.Dst.Harness.rejected o.Dst.Harness.injected_fired
            o.Dst.Harness.injected_checks o.Dst.Harness.min_worst_available
            o.Dst.Harness.final_live o.Dst.Harness.final_available
            o.Dst.Harness.final_lower_bound
            (match o.Dst.Harness.violation with
            | None -> "ok"
            | Some v ->
                Printf.sprintf "VIOLATION %s @ step %d: %s"
                  v.Dst.Harness.invariant v.Dst.Harness.step_index
                  v.Dst.Harness.message))
        outcomes;
      Fmt.pr "  summary: %d runs, %d violations@." (Array.length outcomes)
        violations;
      match shrink_result with
      | None -> ()
      | Some (_, res) ->
          Fmt.pr
            "  shrink: %s reproduced by %d events (%d candidates tried) -> \
             %s@."
            res.Dst.Shrink.violation.Dst.Harness.invariant
            (List.length res.Dst.Shrink.history)
            res.Dst.Shrink.candidates repro_path
    end;
    if violations > 0 then exit 1
  in
  Term.(
    const run $ n_arg $ r_arg $ s_arg $ k_arg
    $ seed_arg ~default:1
        ~doc:
          "Base seed: run $(i,i) of a sweep uses SEED+$(i,i), driving both \
           the scenario generator and the fault-injection plan."
    $ runs_arg $ steps_arg
    $ measure_every_arg ~default:50
        ~doc:
          "Measurement pulse period: pulse-cadence invariants (replay, \
           in-service, per-strategy) run on these events (0 disables them)."
    $ profile_arg $ strategy_arg $ inject_arg $ break_arg $ shrink_flag
    $ repro_arg $ events_arg $ jobs_term $ json_flag $ telemetry_term)

(* ------------------------------------------------------------------ *)
(* The command table. *)

let main_cmd =
  let doc = "replica placement for availability in the worst case (ICDCS'15 reproduction)" in
  Cmd.group
    (Cmd.info "placement-tool" ~version:"1.0.0" ~doc)
    [
      Cmd.v
        (Cmd.info "plan" ~doc:"Compute a placement plan and its availability bound.")
        plan_term;
      Cmd.v
        (Cmd.info "analyze" ~doc:"Worst-case availability analysis of a strategy.")
        analyze_term;
      Cmd.v
        (Cmd.info "designs" ~doc:"List the design catalogue for a given (x, r).")
        designs_term;
      Cmd.v
        (Cmd.info "gap"
           ~doc:"Chunked capacity plan for a system size (Observation 2).")
        gap_term;
      Cmd.v
        (Cmd.info "simulate" ~doc:"Materialize a placement and attack it.")
        simulate_term;
      Cmd.v
        (Cmd.info "attack"
           ~doc:
             "Attack a layout exported with simulate --out, a strategy, or a \
              synthetic --random instance.")
        attack_term;
      Cmd.v
        (Cmd.info "churn"
           ~doc:
             "Replay an event stream (node/domain outages, recoveries, object \
              create/delete) through the continuous placement engine, \
              re-scoring worst-case availability incrementally after every \
              event.")
        churn_term;
      Cmd.v
        (Cmd.info "serve"
           ~doc:
             "Run the continuous placement engine as a long-lived daemon: \
              newline-delimited events and queries in (stdin or a Unix \
              socket), one placement/v1 envelope per request out.")
        serve_term;
      Cmd.v
        (Cmd.info "dst"
           ~doc:
             "Deterministic simulation testing: drive seeded scenario \
              profiles through the engine with fault injection armed, check \
              the invariant registry every step, and shrink any failure to a \
              replayable repro.")
        dst_term;
      Cmd.v
        (Cmd.info "strategies" ~doc:"List the registered placement strategies.")
        strategies_term;
      Cmd.v
        (Cmd.info "recommend"
           ~doc:
             "Find the cheapest replication config meeting an availability \
              target.")
        recommend_term;
      Cmd.v
        (Cmd.info "topology"
           ~doc:"Parse a fault-domain topology spec and describe its levels.")
        topology_cmd_term;
    ]

let () = exit (Cmd.eval main_cmd)
