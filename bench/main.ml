(* Benchmark & reproduction harness.

   Usage:
     bench/main.exe                     run every artefact, then perf
     bench/main.exe fig2                one artefact (see list below)
     bench/main.exe all --out results/  also write one file per artefact
     bench/main.exe quick               cheap subset (used by CI/tests)
     bench/main.exe perf --quick        perf with small grids, no micro pass
     bench/main.exe -j 4 fig2           fan the artefact grids over 4 domains

   Artefacts: fig2..fig11, theorem1, ablation-adversary, ablation-random,
   ablation-load, ablation-online, baseline-copyset, domain-grid, perf.

   Each figN prints the rows/series of the corresponding figure or table
   of the paper (see DESIGN.md §4 and EXPERIMENTS.md).  `-j N` (default:
   Domain.recommended_domain_count) sizes the Engine.Pool shared by the
   parallel drivers (F2, F5/F6, F7, F9); outputs are bit-identical at any
   `-j`.  `perf` additionally times the adversary multi-restart at -j 1
   vs -j N and the incremental kernel against the frozen naive greedy
   (both appended to BENCH_adversary.json), plus the cached-vs-uncached
   availability-analysis sweep (appended to BENCH_analysis.json). *)

type ctx = {
  pool : Engine.Pool.t option;  (* None when running at -j 1 *)
  jobs : int;
  out : string option;
  quick : bool;  (* perf --quick: small grids, no Bechamel micro pass *)
}

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core algorithms                    *)

let perf_tests () =
  let open Bechamel in
  let sts69 = Designs.Steiner_triple.make 69 in
  let layout_2400 =
    (Placement.Simple.of_design sts69 ~n:71 ~b:2400).Placement.Simple.layout
  in
  let params_9600 = Placement.Params.make ~b:9600 ~r:3 ~s:3 ~n:71 ~k:5 in
  let levels = Placement.Combo.default_levels ~n:71 ~r:3 ~s:3 () in
  let params_rnd = Placement.Params.make ~b:600 ~r:3 ~s:2 ~n:71 ~k:4 in
  [
    Test.make ~name:"sts_69"
      (Staged.stage (fun () -> Designs.Steiner_triple.make 69));
    Test.make ~name:"sts_255"
      (Staged.stage (fun () -> Designs.Steiner_triple.make 255));
    Test.make ~name:"spherical_17"
      (Staged.stage (fun () -> Designs.Spherical.make ~q:4 ~d:2));
    Test.make ~name:"sqs_32"
      (Staged.stage (fun () -> Designs.Quadruple.make 32));
    Test.make ~name:"difference_family_41_5"
      (Staged.stage (fun () -> Designs.Difference_family.find ~v:41 ~r:5 ()));
    Test.make ~name:"combo_dp_b9600"
      (Staged.stage (fun () -> Placement.Combo.optimize ~levels params_9600));
    Test.make ~name:"pr_avail_b38400"
      (Staged.stage (fun () ->
           Placement.Random_analysis.pr_avail
             (Placement.Params.make ~b:38400 ~r:3 ~s:2 ~n:71 ~k:5)));
    Test.make ~name:"adversary_greedy_b2400"
      (Staged.stage (fun () ->
           Placement.Adversary.greedy layout_2400 ~s:2 ~k:4));
    Test.make ~name:"random_place_b600"
      (let rng = Combin.Rng.create 42 in
       Staged.stage (fun () -> Placement.Random_placement.place ~rng params_rnd));
    Test.make ~name:"adaptive_add_1k"
      (Staged.stage (fun () ->
           let t = Placement.Adaptive.create ~n:71 ~r:3 ~s:2 ~k:4 () in
           ignore (Placement.Adaptive.add_many t 1000)));
  ]

let run_micro fmt =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let tests = Test.make_grouped ~name:"repro" ~fmt:"%s/%s" (perf_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> rows := (name, t) :: !rows
          | _ -> ())
        tbl;
      List.iter
        (fun (name, t) -> Format.fprintf fmt "%-36s %14.1f ns/run@." name t)
        (List.sort compare !rows))
    results

(* ------------------------------------------------------------------ *)
(* Adversary scaling micro-bench: wall-clock at -j 1 vs -j N, recorded
   as one JSON object per line so future PRs can track the perf curve. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Re-run a measured workload once with the Telemetry registry enabled
   and return its deterministic search statistics as a compact JSON
   object (the "values" section only: the part that is bit-identical
   across -j and across machines), for embedding into BENCH_*.json
   rows.  The extra run happens after the timed ones so collection never
   perturbs the recorded walls. *)
let stats_json_of f =
  Telemetry.Registry.reset ();
  Telemetry.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.Control.set_enabled false)
    (fun () -> ignore (f ()));
  let snap = Telemetry.Registry.snapshot () in
  Telemetry.Json.to_string (Telemetry.Export.values_json snap)

let run_adversary_scaling ctx fmt =
  let n = 71 and b = 2400 and s = 2 and k = 5 and restarts = 32 in
  let design = Designs.Steiner_triple.make 69 in
  let layout = (Placement.Simple.of_design design ~n ~b).Placement.Simple.layout in
  let attack_with pool =
    Placement.Adversary.local_search ~rng:(Combin.Rng.create 0xBE7C) ~restarts
      ?pool layout ~s ~k
  in
  (* Warm-up: the first run pays page-fault and GC-growth costs that would
     otherwise be billed entirely to the -j 1 measurement. *)
  ignore (attack_with None);
  let seq, wall_j1 = wall (fun () -> attack_with None) in
  let par, wall_jn =
    match ctx.pool with
    | Some _ -> wall (fun () -> attack_with ctx.pool)
    | None -> wall (fun () -> attack_with None)
  in
  let identical =
    seq.Placement.Adversary.failed_objects = par.Placement.Adversary.failed_objects
    && seq.Placement.Adversary.failed_nodes = par.Placement.Adversary.failed_nodes
  in
  let speedup = if wall_jn > 0.0 then wall_j1 /. wall_jn else 0.0 in
  Format.fprintf fmt
    "adversary multi-restart (n=%d b=%d s=%d k=%d restarts=%d): \
     %.3fs at -j1, %.3fs at -j%d (speedup %.2fx, outputs %s)@."
    n b s k restarts wall_j1 wall_jn ctx.jobs speedup
    (if identical then "identical" else "DIFFER");
  let json =
    Printf.sprintf
      "{\"op\": \"adversary_local_search_multi_restart\", \"n\": %d, \
       \"b\": %d, \"s\": %d, \"k\": %d, \"restarts\": %d, \"jobs\": %d, \
       \"wall_s_j1\": %.6f, \"wall_s_jn\": %.6f, \"speedup\": %.4f, \
       \"identical\": %b, \"stats\": %s}\n"
      n b s k restarts ctx.jobs wall_j1 wall_jn speedup identical
      (stats_json_of (fun () -> attack_with None))
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_adversary.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

(* ------------------------------------------------------------------ *)
(* Cached vs uncached availability analysis: the Fig-9-style lbAvail_co
   grid sweep through Placement.Instance (one table build per (n, r, s),
   O(1) with_cell per grid cell, binomial columns hoisted out of the DP)
   against a frozen copy of the pre-Instance path (level set respun and
   exact binomials recomputed inside the DP inner loop for every cell —
   what Fig9.cell_value compiled to before the refactor).  Both arms must
   agree on every lb; the speedup line lands in BENCH_analysis.json. *)

let uncached_lb ~n ~r ~s ~k ~b =
  let levels = Placement.Combo.default_levels ~n ~r ~s () in
  let loss (level : Placement.Combo.level) d =
    d * level.Placement.Combo.mu
    * Combin.Binomial.exact k (level.Placement.Combo.x + 1)
    / Combin.Binomial.exact s (level.Placement.Combo.x + 1)
  in
  let neg_inf = min_int / 2 in
  let lbav = Array.make_matrix s (b + 1) 0 in
  let l0 = levels.(0) in
  for b' = 1 to b do
    if l0.Placement.Combo.cap_mu = 0 then lbav.(0).(b') <- neg_inf
    else begin
      let d = (b' + l0.Placement.Combo.cap_mu - 1) / l0.Placement.Combo.cap_mu in
      lbav.(0).(b') <- max 0 (b' - loss l0 d)
    end
  done;
  for x' = 1 to s - 1 do
    let level = levels.(x') in
    let cap = level.Placement.Combo.cap_mu in
    for b' = 1 to b do
      let best = ref neg_inf in
      let d_max = if cap = 0 then 0 else (b' + cap - 1) / cap in
      for d = 0 to d_max do
        let hosted = min b' (d * cap) in
        let rest = b' - (d * cap) in
        let below = if rest <= 0 then 0 else lbav.(x' - 1).(rest) in
        if below > neg_inf then begin
          let value = below + hosted - loss level d in
          if value > !best then best := value
        end
      done;
      lbav.(x').(b') <- !best
    done
  done;
  max 0 lbav.(s - 1).(b)

let run_analysis_caching ctx fmt =
  let n = 71 in
  let bs = [ 600; 1200; 2400; 4800; 9600 ] in
  let tables =
    List.concat_map
      (fun r -> List.map (fun s -> (r, s)) (List.init (r - 1) (fun i -> i + 2)))
      [ 2; 3; 4; 5 ]
  in
  let ks s = List.init (7 - s + 1) (fun i -> s + i) in
  let sweep_uncached () =
    List.concat_map
      (fun (r, s) ->
        List.concat_map
          (fun b -> List.map (fun k -> uncached_lb ~n ~r ~s ~k ~b) (ks s))
          bs)
      tables
  in
  let sweep_cached () =
    List.concat_map
      (fun (r, s) ->
        let base = Placement.Instance.make ~b:(List.hd bs) ~r ~s ~n ~k:s () in
        List.concat_map
          (fun b ->
            List.map
              (fun k ->
                (Placement.Instance.combo_config
                   (Placement.Instance.with_cell base ~b ~k))
                  .Placement.Combo.lb)
              (ks s))
          bs)
      tables
  in
  (* Warm-up both arms once so neither is billed allocator start-up. *)
  ignore (sweep_cached ());
  ignore (sweep_uncached ());
  let lbs_uncached, wall_uncached = wall sweep_uncached in
  let lbs_cached, wall_cached = wall sweep_cached in
  let identical = lbs_uncached = lbs_cached in
  let cells = List.length lbs_cached in
  let speedup = if wall_cached > 0.0 then wall_uncached /. wall_cached else 0.0 in
  Format.fprintf fmt
    "analysis grid sweep (n=%d, %d cells): %.3fs uncached (per-cell levels + \
     exact binomials), %.3fs via Instance (speedup %.2fx, lbs %s)@."
    n cells wall_uncached wall_cached speedup
    (if identical then "identical" else "DIFFER");
  let json =
    Printf.sprintf
      "{\"op\": \"combo_lb_grid_sweep\", \"n\": %d, \"cells\": %d, \
       \"quick\": %b, \"wall_s_uncached\": %.6f, \"wall_s_cached\": %.6f, \
       \"speedup\": %.4f, \"identical\": %b, \"stats\": %s}\n"
      n cells ctx.quick wall_uncached wall_cached speedup identical
      (stats_json_of sweep_cached)
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_analysis.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

(* ------------------------------------------------------------------ *)
(* Telemetry overhead guard: the instrumentation must be disabled-by-
   default free.  We time the adversary multi-restart with the registry
   off and on; since the disabled paths do strictly less work than the
   enabled ones (every probe is gated on Control.on), the enabled
   overhead is an upper bound on the disabled overhead, and the guard
   [disabled_ok] asserts it stays under 5%.  The ns/op of the two
   disabled primitives (counter bump, span timer) is recorded alongside
   for visibility.  check.sh greps the row's disabled_ok. *)

let run_telemetry_overhead ctx fmt =
  let n = 71 and b = 1200 and s = 2 and k = 4 and restarts = 16 in
  let design = Designs.Steiner_triple.make 69 in
  let layout = (Placement.Simple.of_design design ~n ~b).Placement.Simple.layout in
  let workload () =
    Placement.Adversary.local_search ~rng:(Combin.Rng.create 0x7E1E) ~restarts
      layout ~s ~k
  in
  ignore (workload ());
  let reps = if ctx.quick then 3 else 5 in
  (* Min-of-reps: the least-perturbed run of each arm. *)
  let time_reps () =
    let best = ref infinity in
    for _ = 1 to reps do
      let _, w = wall workload in
      if w < !best then best := w
    done;
    !best
  in
  let wall_disabled = time_reps () in
  Telemetry.Registry.reset ();
  Telemetry.Control.set_enabled true;
  let wall_enabled =
    Fun.protect
      ~finally:(fun () -> Telemetry.Control.set_enabled false)
      time_reps
  in
  let overhead_pct =
    if wall_disabled > 0.0 then
      max 0.0 (100.0 *. (wall_enabled -. wall_disabled) /. wall_disabled)
    else 0.0
  in
  let disabled_ok = overhead_pct < 5.0 in
  let ops = 10_000_000 in
  let c = Telemetry.Registry.counter "bench/overhead/probe_counter" in
  let (), w_counter =
    wall (fun () ->
        for _ = 1 to ops do
          Telemetry.Counter.incr c
        done)
  in
  let sp = Telemetry.Registry.span "bench/overhead/probe_span" in
  let (), w_span =
    wall (fun () ->
        for _ = 1 to ops do
          Telemetry.Span.time sp ignore
        done)
  in
  let counter_ns = w_counter *. 1e9 /. float_of_int ops in
  let span_ns = w_span *. 1e9 /. float_of_int ops in
  Format.fprintf fmt
    "telemetry overhead (n=%d b=%d s=%d k=%d restarts=%d, min of %d): \
     %.3fs disabled, %.3fs enabled (+%.2f%%, %s); disabled probes: \
     counter %.2f ns/op, span %.2f ns/op@."
    n b s k restarts reps wall_disabled wall_enabled overhead_pct
    (if disabled_ok then "ok" else "OVER BUDGET")
    counter_ns span_ns;
  let json =
    Printf.sprintf
      "{\"op\": \"telemetry_overhead\", \"n\": %d, \"b\": %d, \"s\": %d, \
       \"k\": %d, \"restarts\": %d, \"reps\": %d, \"wall_s_disabled\": %.6f, \
       \"wall_s_enabled\": %.6f, \"overhead_pct\": %.4f, \
       \"counter_ns_disabled\": %.4f, \"span_ns_disabled\": %.4f, \
       \"disabled_ok\": %b}\n"
      n b s k restarts reps wall_disabled wall_enabled overhead_pct counter_ns
      span_ns disabled_ok
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_telemetry.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

(* ------------------------------------------------------------------ *)
(* Domain-adversary scaling: the topology branch-and-bound at -j 1 vs
   -j N.  The rack budget is set so C(racks, j) is a genuinely large
   subset space, the honest B&B workload; the determinism contract says
   the two walls bracket identical outputs. *)

let run_topology_scaling ctx fmt =
  let n = 71 and b = 2400 and s = 2 and racks = 24 and j = 7 in
  let design = Designs.Steiner_triple.make 69 in
  let layout = (Placement.Simple.of_design design ~n ~b).Placement.Simple.layout in
  let tree = Topology.Build.partition ~n ~domains:racks () in
  let attack_with pool =
    Topology.Adversary.exact ?pool layout ~s tree ~level:1 ~j
  in
  ignore (attack_with None);
  let seq, wall_j1 = wall (fun () -> attack_with None) in
  let par, wall_jn =
    match ctx.pool with
    | Some _ -> wall (fun () -> attack_with ctx.pool)
    | None -> wall (fun () -> attack_with None)
  in
  let identical =
    seq.Topology.Adversary.failed_objects = par.Topology.Adversary.failed_objects
    && seq.Topology.Adversary.failed_domains
       = par.Topology.Adversary.failed_domains
  in
  let speedup = if wall_jn > 0.0 then wall_j1 /. wall_jn else 0.0 in
  Format.fprintf fmt
    "domain adversary B&B (n=%d b=%d s=%d, worst %d of %d racks): \
     %.3fs at -j1, %.3fs at -j%d (speedup %.2fx, outputs %s)@."
    n b s j racks wall_j1 wall_jn ctx.jobs speedup
    (if identical then "identical" else "DIFFER");
  let json =
    Printf.sprintf
      "{\"op\": \"topology_domain_adversary_bb\", \"n\": %d, \"b\": %d, \
       \"s\": %d, \"racks\": %d, \"j\": %d, \"jobs\": %d, \
       \"wall_s_j1\": %.6f, \"wall_s_jn\": %.6f, \"speedup\": %.4f, \
       \"identical\": %b, \"stats\": %s}\n"
      n b s racks j ctx.jobs wall_j1 wall_jn speedup identical
      (stats_json_of (fun () -> attack_with None))
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_topology.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

(* ------------------------------------------------------------------ *)
(* Kernel vs naive adversary: the incremental-counter greedy
   (Kernel.select_greedy, CELF heap) against a frozen copy of the
   stateless pre-kernel formulation — every marginal recounted from the
   replica lists, Layout.failed_objects-style, with no hit counters
   carried between candidates.  Both arms compute the same
   (newly, progress) lexicographic objective with lowest-id ties, so
   their pick sequences must match node for node; the walls quantify
   what the kernel buys on the Fig-4 sweep instance.  A second segment
   times the kernel-threaded branch-and-bound and reports nodes/s. *)

let naive_scan_greedy layout ~s ~k =
  let n = layout.Placement.Layout.n in
  let node_objs = Placement.Layout.node_objects layout in
  let replicas = layout.Placement.Layout.replicas in
  let chosen = Array.make n false in
  let evals = ref 0 in
  let out =
    Array.init k (fun _ ->
        let best = ref (-1) and bne = ref (-1) and bpr = ref (-1) in
        for u = 0 to n - 1 do
          if not chosen.(u) then begin
            incr evals;
            let ne = ref 0 and pr = ref 0 in
            Array.iter
              (fun obj ->
                let h =
                  Array.fold_left
                    (fun c nd -> if chosen.(nd) then c + 1 else c)
                    0 replicas.(obj)
                in
                if h + 1 = s then incr ne;
                if h < s then incr pr)
              node_objs.(u);
            if !ne > !bne || (!ne = !bne && !pr > !bpr) then begin
              best := u;
              bne := !ne;
              bpr := !pr
            end
          end
        done;
        chosen.(!best) <- true;
        !best)
  in
  (out, !evals)

let run_kernel_bench ctx fmt =
  let n = 71 and b = 2400 and s = 2 and k = 5 in
  let reps = if ctx.quick then 20 else 100 in
  let design = Designs.Steiner_triple.make 69 in
  let layout = (Placement.Simple.of_design design ~n ~b).Placement.Simple.layout in
  ignore (Placement.Layout.node_objects layout);
  let kernel_run () =
    let kn = Placement.Kernel.make layout ~s in
    Placement.Kernel.select_greedy kn ~picks:k
  in
  let naive_run () = naive_scan_greedy layout ~s ~k in
  (* Warm-up both arms, and check pick-sequence identity once. *)
  let kernel_picks, kstats = kernel_run () in
  let naive_picks, naive_evals = naive_run () in
  let identical = kernel_picks = naive_picks in
  let _, wall_kernel =
    wall (fun () -> for _ = 1 to reps do ignore (kernel_run ()) done)
  in
  let _, wall_naive =
    wall (fun () -> for _ = 1 to reps do ignore (naive_run ()) done)
  in
  let ns_per arm_wall evals =
    if evals > 0 then arm_wall *. 1e9 /. float_of_int (reps * evals) else 0.0
  in
  let speedup = if wall_kernel > 0.0 then wall_naive /. wall_kernel else 0.0 in
  Format.fprintf fmt
    "kernel vs naive greedy (n=%d b=%d s=%d k=%d, %d reps): \
     %.1f us kernel (%d evals) vs %.1f us naive (%d evals) per run \
     (speedup %.2fx, picks %s)@."
    n b s k reps
    (wall_kernel *. 1e6 /. float_of_int reps)
    kstats.Placement.Kernel.evals
    (wall_naive *. 1e6 /. float_of_int reps)
    naive_evals speedup
    (if identical then "identical" else "DIFFER");
  (* Branch-and-bound throughput: the exact adversary now threads one
     kernel copy per branch; nodes/s is the honest scalar for it. *)
  let m_bb_nodes = Telemetry.Registry.counter "core/adversary/bb/nodes_expanded" in
  let bb_k = 3 in
  Telemetry.Registry.reset ();
  Telemetry.Control.set_enabled true;
  let bb, bb_wall =
    Fun.protect
      ~finally:(fun () -> Telemetry.Control.set_enabled false)
      (fun () -> wall (fun () -> Placement.Adversary.exact layout ~s ~k:bb_k))
  in
  let bb_nodes = Telemetry.Counter.value m_bb_nodes in
  let bb_rate = if bb_wall > 0.0 then float_of_int bb_nodes /. bb_wall else 0.0 in
  Format.fprintf fmt
    "kernel-threaded B&B (n=%d b=%d s=%d k=%d): %d nodes in %.3fs \
     (%.0f nodes/s, exact=%b)@."
    n b s bb_k bb_nodes bb_wall bb_rate bb.Placement.Adversary.exact;
  let json =
    Printf.sprintf
      "{\"op\": \"adversary_kernel_vs_naive\", \"n\": %d, \"b\": %d, \
       \"s\": %d, \"k\": %d, \"reps\": %d, \"wall_s_kernel\": %.6f, \
       \"wall_s_naive\": %.6f, \"ns_per_eval_kernel\": %.1f, \
       \"ns_per_eval_naive\": %.1f, \"kernel_evals\": %d, \
       \"naive_evals\": %d, \"speedup\": %.4f, \"identical\": %b, \
       \"bb_k\": %d, \"bb_nodes\": %d, \"bb_wall_s\": %.6f, \
       \"bb_nodes_per_s\": %.0f, \"stats\": %s}\n"
      n b s k reps wall_kernel wall_naive
      (ns_per wall_kernel kstats.Placement.Kernel.evals)
      (ns_per wall_naive naive_evals)
      kstats.Placement.Kernel.evals naive_evals speedup identical bb_k bb_nodes
      bb_wall bb_rate
      (* Adversary.greedy is select_greedy plus the telemetry flush, so
         its stats carry the kernel counters for this exact workload. *)
      (stats_json_of (fun () -> Placement.Adversary.greedy layout ~s ~k))
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_adversary.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

(* ------------------------------------------------------------------ *)
(* Web-scale greedy scaling sweep: the flat-CSR kernel plus sharded CELF
   over an n×b grid, one synthetic Random and one spread Simple(x)
   instance per cell.  One-shard select_greedy is the reference
   oracle; the default-sharded path runs over the ctx pool and must reproduce
   its picks bit-for-bit (shard count is a pure function of the unit
   count, so this holds at any -j — DESIGN.md §11).  One JSON row with a
   per-cell array lands in BENCH_adversary.json; check.sh hard-fails on
   any pick mismatch and warns when the largest cell's speedup drops
   below the nominal floor.  Peak RSS (VmHWM, monotone within the
   process) is recorded per cell and for the sweep. *)

let run_scaling ctx fmt =
  let grid =
    if ctx.quick then [ (500, 10_000); (2_000, 50_000) ]
    else [ (1_000, 50_000); (4_000, 250_000); (10_000, 1_000_000) ]
  in
  let picks = 16 and r = 3 and s = 2 in
  let sts = Designs.Steiner_triple.make 69 in
  let rss () =
    match Telemetry.Resource.peak_rss_kb () with Some kb -> kb | None -> 0
  in
  let cells = ref [] in
  let all_identical = ref true in
  let last_speedup = ref 0.0 and last_label = ref "" in
  List.iter
    (fun (n, b) ->
      let families =
        [
          ( "random",
            fun () ->
              let params = Placement.Params.make ~b ~r ~s ~n ~k:picks in
              Placement.Random_placement.place
                ~rng:(Combin.Rng.create 0x5CA1E) params );
          ( "simple",
            fun () ->
              (Placement.Simple.of_design ~spread:true sts ~n ~b)
                .Placement.Simple.layout );
        ]
      in
      List.iter
        (fun (family, build) ->
          let layout = build () in
          let kn0 = Placement.Kernel.make layout ~s in
          (* Touch the kernel once so the shared CSR build and the page
             faults of the fresh planes are billed to neither arm. *)
          ignore (Placement.Kernel.marginal kn0 0);
          let (picks_seq, stats_seq), wall_j1 =
            wall (fun () ->
                Placement.Kernel.select_greedy ~shards:1
                  (Placement.Kernel.copy kn0) ~picks)
          in
          let (picks_par, stats_par), wall_jn =
            wall (fun () ->
                Placement.Kernel.select_greedy ?pool:ctx.pool
                  (Placement.Kernel.copy kn0) ~picks)
          in
          let identical = picks_seq = picks_par in
          if not identical then all_identical := false;
          let speedup = if wall_jn > 0.0 then wall_j1 /. wall_jn else 0.0 in
          last_speedup := speedup;
          last_label := Printf.sprintf "%s_%dx%d" family n b;
          let ns_per_eval =
            if stats_seq.Placement.Kernel.evals > 0 then
              wall_j1 *. 1e9 /. float_of_int stats_seq.Placement.Kernel.evals
            else 0.0
          in
          let cell_rss = rss () in
          Format.fprintf fmt
            "greedy %s n=%d b=%d (%d picks): %.3fs seq, %.3fs sharded at \
             -j%d (speedup %.2fx, %.0f ns/eval, %d heap pops, picks %s, \
             peak RSS %d kB)@."
            family n b picks wall_j1 wall_jn ctx.jobs speedup ns_per_eval
            stats_par.Placement.Kernel.heap_pops
            (if identical then "identical" else "DIFFER")
            cell_rss;
          cells :=
            Printf.sprintf
              "{\"family\": \"%s\", \"n\": %d, \"b\": %d, \"picks\": %d, \
               \"wall_s_j1\": %.6f, \"wall_s_jn\": %.6f, \"speedup\": %.4f, \
               \"ns_per_eval_j1\": %.1f, \"evals_j1\": %d, \"evals_jn\": %d, \
               \"heap_pops_j1\": %d, \"heap_pops_jn\": %d, \
               \"stale_reevals_jn\": %d, \"identical\": %b, \
               \"peak_rss_kb\": %d}"
              family n b picks wall_j1 wall_jn speedup ns_per_eval
              stats_seq.Placement.Kernel.evals stats_par.Placement.Kernel.evals
              stats_seq.Placement.Kernel.heap_pops
              stats_par.Placement.Kernel.heap_pops
              stats_par.Placement.Kernel.stale_reevals identical cell_rss
            :: !cells)
        families)
    grid;
  let json =
    Printf.sprintf
      "{\"op\": \"adversary_scaling_sweep\", \"jobs\": %d, \"quick\": %b, \
       \"picks\": %d, \"identical_all\": %b, \"largest_cell\": \"%s\", \
       \"largest_cell_speedup\": %.4f, \"peak_rss_kb\": %d, \"cells\": [%s]}\n"
      ctx.jobs ctx.quick picks !all_identical !last_label !last_speedup
      (rss ())
      (String.concat ", " (List.rev !cells))
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_adversary.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

(* ------------------------------------------------------------------ *)
(* Sharded frontier vs branch-parallel exact adversary: the PR-10
   work-stealing B&B (Placement.Bb, DESIGN.md §15) against a frozen
   copy of the scheme it replaced — one branch per first-choice node,
   each with a statically pre-split budget share and a local best
   seeded from the incumbent read once before dispatch.  Both arms and
   the sequential oracle ([exact_seq] = spawn_depth k) must agree on
   damage AND winning set at any -j; the row records walls, task/steal
   counts and ns/task (the per-task cost the reusable CELF heap and
   prefix-diff kernel retargeting keep flat) for k=6–7 exact attacks
   on a Fig.4 design point and a random instance. *)

let branch_parallel_exact ?pool layout ~s ~k ~budget =
  let n = layout.Placement.Layout.n in
  let kn0 = Placement.Kernel.make layout ~s in
  let degrees = Array.init n (Placement.Kernel.degree kn0) in
  let top_deg = Placement.Bb.top_degrees ~degrees ~n ~k in
  let g = Placement.Adversary.greedy ?pool layout ~s ~k in
  let seed = g.Placement.Adversary.failed_objects in
  let first_choices = Array.init (n - k + 1) Fun.id in
  let branch_budget = max 1 (budget / Array.length first_choices) in
  let run_branch nd0 =
    let st = Placement.Kernel.copy kn0 in
    let best = ref seed and best_set = ref None in
    let current = Array.make k 0 in
    let visited = ref 0 and truncated = ref false in
    let rec go start depth =
      incr visited;
      if !visited > branch_budget then truncated := true
      else if depth = k then begin
        if Placement.Kernel.killed st > !best then begin
          best := Placement.Kernel.killed st;
          best_set := Some (Array.copy current)
        end
      end
      else if Placement.Kernel.killed st + top_deg.(start).(k - depth) > !best
      then
        for nd = start to n - (k - depth) do
          if not !truncated then begin
            current.(depth) <- nd;
            Placement.Kernel.add st nd;
            go (nd + 1) (depth + 1);
            Placement.Kernel.remove st nd
          end
        done
    in
    current.(0) <- nd0;
    Placement.Kernel.add st nd0;
    go (nd0 + 1) 1;
    (!best, !best_set, !truncated)
  in
  let results =
    match pool with
    | Some p -> Engine.Pool.parallel_map p run_branch first_choices
    | None -> Array.map run_branch first_choices
  in
  let best = ref seed and best_set = ref g.Placement.Adversary.failed_nodes in
  let truncated = ref false in
  Array.iter
    (fun (v, set, tr) ->
      if tr then truncated := true;
      match set with
      | Some nodes when v > !best ->
          best := v;
          best_set := Combin.Intset.of_array nodes
      | _ -> ())
    results;
  (!best, !best_set, !truncated)

let run_bb_scaling ctx fmt =
  let s = 2 and budget = 1_000_000_000 in
  let combo31 =
    Placement.Instance.combo_layout
      (Placement.Instance.make ~b:600 ~r:3 ~s ~n:31 ~k:6 ())
  in
  let random40 =
    Placement.Random_placement.place ~rng:(Combin.Rng.create 0x5CA1E)
      (Placement.Params.make ~b:800 ~r:3 ~s ~n:40 ~k:6)
  in
  let ks = if ctx.quick then [ 6 ] else [ 6; 7 ] in
  let points =
    List.concat_map
      (fun k ->
        [ ("combo", 31, 600, combo31, k); ("random", 40, 800, random40, k) ])
      ks
  in
  (* Warm-up on the smallest point: page faults and GC growth are billed
     to neither arm. *)
  ignore (Placement.Adversary.exact ~budget combo31 ~s ~k:5);
  let cells = ref [] in
  let all_identical = ref true in
  let k6_speedup = ref 0.0 in
  List.iter
    (fun (family, n, b, layout, k) ->
      let kn0 = Placement.Kernel.make layout ~s in
      let g = Placement.Adversary.greedy layout ~s ~k in
      let seed = g.Placement.Adversary.failed_objects in
      let set_of (r : Placement.Bb.result) =
        match r.Placement.Bb.set with
        | Some nodes -> Combin.Intset.of_array nodes
        | None -> g.Placement.Adversary.failed_nodes
      in
      let (br_value, br_set, br_trunc), wall_branch =
        wall (fun () -> branch_parallel_exact ?pool:ctx.pool layout ~s ~k ~budget)
      in
      let r1, wall_j1 =
        wall (fun () -> Placement.Bb.search ~budget ~kernel:kn0 ~k ~seed ())
      in
      let rn, wall_jn =
        wall (fun () ->
            Placement.Bb.search ?pool:ctx.pool ~budget ~kernel:kn0 ~k ~seed ())
      in
      let oracle, wall_oracle =
        wall (fun () ->
            Placement.Bb.search ~spawn_depth:k ~budget ~kernel:kn0 ~k ~seed ())
      in
      let identical =
        (not br_trunc)
        && (not r1.Placement.Bb.truncated)
        && (not rn.Placement.Bb.truncated)
        && (not oracle.Placement.Bb.truncated)
        && br_value = oracle.Placement.Bb.value
        && r1.Placement.Bb.value = oracle.Placement.Bb.value
        && rn.Placement.Bb.value = oracle.Placement.Bb.value
        && br_set = set_of oracle
        && set_of r1 = set_of oracle
        && set_of rn = set_of oracle
      in
      if not identical then all_identical := false;
      let speedup = if wall_jn > 0.0 then wall_branch /. wall_jn else 0.0 in
      if k = 6 && family = "random" then k6_speedup := speedup;
      let st = rn.Placement.Bb.stats in
      let tasks = st.Placement.Bb.spawned_tasks in
      let ns_per_task =
        if tasks > 0 then wall_jn *. 1e9 /. float_of_int tasks else 0.0
      in
      Format.fprintf fmt
        "exact %s n=%d b=%d k=%d: %.3fs branch-parallel, %.3fs frontier \
         -j1, %.3fs frontier -j%d (%.2fx vs branch), %.3fs oracle; \
         %d tasks at depth %d, %d steals, %.0f ns/task, results %s@."
        family n b k wall_branch wall_j1 wall_jn ctx.jobs speedup wall_oracle
        tasks st.Placement.Bb.spawn_depth st.Placement.Bb.steals ns_per_task
        (if identical then "identical" else "DIFFER");
      cells :=
        Printf.sprintf
          "{\"family\": \"%s\", \"n\": %d, \"b\": %d, \"k\": %d, \
           \"wall_s_branch\": %.6f, \"wall_s_frontier_j1\": %.6f, \
           \"wall_s_frontier_jn\": %.6f, \"wall_s_oracle\": %.6f, \
           \"speedup_vs_branch\": %.4f, \"spawned_tasks\": %d, \
           \"spawn_depth\": %d, \"steals\": %d, \"nodes_jn\": %d, \
           \"ns_per_task_jn\": %.1f, \"identical\": %b}"
          family n b k wall_branch wall_j1 wall_jn wall_oracle speedup tasks
          st.Placement.Bb.spawn_depth st.Placement.Bb.steals
          st.Placement.Bb.nodes ns_per_task identical
        :: !cells)
    points;
  let json =
    Printf.sprintf
      "{\"op\": \"bb_sharded_vs_branch\", \"jobs\": %d, \"quick\": %b, \
       \"budget\": %d, \"identical_all\": %b, \"k6_speedup_vs_branch\": \
       %.4f, \"cells\": [%s]}\n"
      ctx.jobs ctx.quick budget !all_identical !k6_speedup
      (String.concat ", " (List.rev !cells))
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_adversary.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

(* ------------------------------------------------------------------ *)
(* Continuous churn trace: the event-sourced engine on an n=10^3,
   b=10^5 population.  The apply arm measures event throughput and
   checks the bounded-data-movement contract (no event moves more than
   r replicas); the re-score arms pit the incremental Dyn adversary
   against a full from-scratch rebuild (Kernel.make + select_greedy)
   on the final population.  The two must agree on picks, damage and
   scan stats — Churn.check re-verifies the whole stack — and check.sh
   gates on both booleans. *)

let run_churn_bench ctx fmt =
  let n = 1_000 and r = 3 and s = 2 and k = 8 in
  let prepop = if ctx.quick then 20_000 else 100_000 in
  let count = if ctx.quick then 2_000 else 10_000 in
  let eng = Dsim.Churn.create ~n ~r ~s ~k () in
  for _ = 1 to prepop do
    ignore (Dsim.Churn.apply eng Dsim.Event.Object_create)
  done;
  let events =
    Dsim.Event.seeded ~rng:(Combin.Rng.create 0xC4AF) ~n ~initial:prepop
      ~count ~measure_every:0 ()
  in
  let moved0 = Dsim.Churn.moved_replicas eng in
  let moved_bounded = ref true in
  let (), wall_apply =
    wall (fun () ->
        List.iter
          (fun ev ->
            let step = Dsim.Churn.apply eng ev in
            if step.Dsim.Churn.moved > r then moved_bounded := false)
          events)
  in
  let events_per_s =
    if wall_apply > 0.0 then float_of_int count /. wall_apply else 0.0
  in
  let moved_per_event =
    float_of_int (Dsim.Churn.moved_replicas eng - moved0) /. float_of_int count
  in
  let incr_run () = Dsim.Churn.rescore eng in
  let scratch_run () =
    let kn = Placement.Kernel.make (Dsim.Churn.layout eng) ~s in
    Placement.Kernel.select_greedy kn ~picks:k
  in
  (* Warm-up, then check incremental ≡ scratch on picks, damage and —
     via the full engine oracle — hit planes and scan stats. *)
  let rs = incr_run () in
  let kn = Placement.Kernel.make (Dsim.Churn.layout eng) ~s in
  let picks_ref, _ = Placement.Kernel.select_greedy kn ~picks:k in
  let incremental_eq_scratch =
    rs.Dsim.Churn.attack = picks_ref
    && rs.Dsim.Churn.worst_available
       = Dsim.Churn.live eng - Placement.Kernel.killed kn
    && match Dsim.Churn.check eng with
       | () -> true
       | exception Failure _ -> false
  in
  let reps = if ctx.quick then 3 else 5 in
  let (), wall_incr =
    wall (fun () -> for _ = 1 to reps do ignore (incr_run ()) done)
  in
  let (), wall_scratch =
    wall (fun () -> for _ = 1 to reps do ignore (scratch_run ()) done)
  in
  let speedup = if wall_incr > 0.0 then wall_scratch /. wall_incr else 0.0 in
  Format.fprintf fmt
    "churn trace (n=%d prepop=%d events=%d r=%d s=%d k=%d): %.0f events/s \
     apply, %.2f moved replicas/event (%s); re-score %.1f ms incremental vs \
     %.1f ms from-scratch per run (speedup %.2fx, outputs %s)@."
    n prepop count r s k events_per_s moved_per_event
    (if !moved_bounded then "bounded by r" else "BOUND VIOLATED")
    (wall_incr *. 1e3 /. float_of_int reps)
    (wall_scratch *. 1e3 /. float_of_int reps)
    speedup
    (if incremental_eq_scratch then "identical" else "DIFFER");
  let json =
    Printf.sprintf
      "{\"op\": \"churn_trace\", \"n\": %d, \"prepop\": %d, \"events\": %d, \
       \"r\": %d, \"s\": %d, \"k\": %d, \"quick\": %b, \
       \"events_per_s\": %.0f, \"moved_per_event\": %.4f, \
       \"moved_bounded\": %b, \"wall_s_incremental\": %.6f, \
       \"wall_s_scratch\": %.6f, \"rescore_speedup\": %.4f, \
       \"incremental_eq_scratch\": %b, \"stats\": %s}\n"
      n prepop count r s k ctx.quick events_per_s moved_per_event
      !moved_bounded
      (wall_incr /. float_of_int reps)
      (wall_scratch /. float_of_int reps)
      speedup incremental_eq_scratch
      (stats_json_of (fun () -> incr_run ()))
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_churn.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

(* Serve protocol overhead: the same seeded stream consumed two ways —
   raw Churn.apply calls (the batch floor) and the full serve loop
   (line framing, request parse, Api.exec, one placement/v1 envelope
   written per event).  The gap is the price of the wire protocol; the
   engines must land in the same state, which pins serve ≡ batch
   beyond what the CLI byte-diff in check.sh already covers. *)

let run_serve_bench ctx fmt =
  let n = 1_000 and r = 3 and s = 2 and k = 8 in
  let prepop = if ctx.quick then 20_000 else 100_000 in
  let count = if ctx.quick then 2_000 else 10_000 in
  let mk () =
    let eng = Dsim.Churn.create ~n ~r ~s ~k () in
    for _ = 1 to prepop do
      ignore (Dsim.Churn.apply eng Dsim.Event.Object_create)
    done;
    eng
  in
  let events =
    Dsim.Event.seeded ~rng:(Combin.Rng.create 0xC4AF) ~n ~initial:prepop
      ~count ~measure_every:0 ()
  in
  let batch = mk () in
  let (), wall_batch =
    wall (fun () ->
        List.iter (fun ev -> ignore (Dsim.Churn.apply batch ev)) events)
  in
  let served = mk () in
  let script =
    String.concat "\n" (List.map Dsim.Event.to_line events) ^ "\n"
  in
  let path = Filename.temp_file "serve_bench" ".txt" in
  let outcome, wall_serve =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc script;
        close_out oc;
        let input = Unix.openfile path [ Unix.O_RDONLY ] 0 in
        let output = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Fun.protect
          ~finally:(fun () ->
            Unix.close input;
            Unix.close output)
          (fun () ->
            let session = Dsim.Api.make served in
            wall (fun () -> Dsim.Serve.run session ~input ~output)))
  in
  let per_s w = if w > 0.0 then float_of_int count /. w else 0.0 in
  let engines_agree =
    outcome.Dsim.Serve.reason = Dsim.Serve.Eof
    && outcome.Dsim.Serve.requests = count
    && Dsim.Churn.live served = Dsim.Churn.live batch
    && Dsim.Churn.available served = Dsim.Churn.available batch
    && Dsim.Churn.lower_bound served = Dsim.Churn.lower_bound batch
    && Dsim.Churn.moved_replicas served = Dsim.Churn.moved_replicas batch
  in
  let overhead =
    if wall_batch > 0.0 then wall_serve /. wall_batch else 0.0
  in
  let peak_rss_kb =
    match Telemetry.Resource.peak_rss_kb () with Some kb -> kb | None -> 0
  in
  Format.fprintf fmt
    "serve protocol (n=%d prepop=%d events=%d): %.0f events/s over the \
     serve loop vs %.0f events/s raw applies (%.2fx protocol overhead, \
     states %s, peak RSS %d kB)@."
    n prepop count (per_s wall_serve) (per_s wall_batch) overhead
    (if engines_agree then "identical" else "DIFFER")
    peak_rss_kb;
  let json =
    Printf.sprintf
      "{\"op\": \"serve_pipe\", \"n\": %d, \"prepop\": %d, \"events\": %d, \
       \"r\": %d, \"s\": %d, \"k\": %d, \"quick\": %b, \
       \"serve_events_per_s\": %.0f, \"apply_events_per_s\": %.0f, \
       \"protocol_overhead\": %.4f, \"engines_agree\": %b, \
       \"peak_rss_kb\": %d}\n"
      n prepop count r s k ctx.quick (per_s wall_serve) (per_s wall_batch)
      overhead engines_agree peak_rss_kb
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_churn.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

(* Deterministic simulation sweep: full dst runs — scenario
   generation, the Api surface, fault injection armed, every invariant
   checked each step (replay and per-strategy checks at the pulse
   cadence) — fanned through the pool.  The row reports invariant-
   checked event throughput; check.sh gates on zero violations. *)

let run_dst_bench ctx fmt =
  let n = 64 and seeds = if ctx.quick then 3 else 6 in
  let steps = if ctx.quick then 400 else 1_500 in
  let profiles =
    List.filter_map Dst.Profile.find [ "steady"; "storm"; "membership" ]
  in
  let configs =
    Array.of_list
      (List.concat_map
         (fun profile ->
           List.init seeds (fun i ->
               {
                 Dst.Harness.n;
                 r = 3;
                 s = 2;
                 k = 4;
                 seed = 1 + i;
                 steps;
                 measure_every = steps / 4;
                 profile;
                 strategy = None;
                 inject_rate = 50;
                 break_invariants = [];
                 extra_invariants = [];
               }))
         profiles)
  in
  let outcomes, wall_s =
    wall (fun () -> Dst.Harness.sweep ?pool:ctx.pool configs)
  in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let events = sum (fun o -> o.Dst.Harness.events) in
  let applied = sum (fun o -> o.Dst.Harness.applied) in
  let rejected = sum (fun o -> o.Dst.Harness.rejected) in
  let fired = sum (fun o -> o.Dst.Harness.injected_fired) in
  let violations =
    sum (fun o -> match o.Dst.Harness.violation with Some _ -> 1 | None -> 0)
  in
  let events_per_s =
    if wall_s > 0.0 then float_of_int events /. wall_s else 0.0
  in
  let peak_rss_kb =
    match Telemetry.Resource.peak_rss_kb () with Some kb -> kb | None -> 0
  in
  Format.fprintf fmt
    "dst sweep (%d runs: n=%d, %d steps, %d profiles, inject 1/50, -j%d): \
     %d events at %.0f invariant-checked events/s, %d rejected (%d injected \
     faults), %d violations, peak RSS %d kB@."
    (Array.length configs) n steps (List.length profiles) ctx.jobs events
    events_per_s rejected fired violations peak_rss_kb;
  let json =
    Printf.sprintf
      "{\"op\": \"dst_sweep\", \"runs\": %d, \"n\": %d, \"steps\": %d, \
       \"seeds\": %d, \"profiles\": %d, \"inject_rate\": 50, \"jobs\": %d, \
       \"quick\": %b, \"events\": %d, \"applied\": %d, \"rejected\": %d, \
       \"injected_fired\": %d, \"events_per_s\": %.0f, \"violations\": %d, \
       \"zero_violations\": %b, \"wall_s\": %.6f, \"peak_rss_kb\": %d}\n"
      (Array.length configs) n steps seeds (List.length profiles) ctx.jobs
      ctx.quick events applied rejected fired events_per_s violations
      (violations = 0) wall_s peak_rss_kb
  in
  let dir = match ctx.out with Some d -> d | None -> "." in
  let path = Filename.concat dir "BENCH_dst.json" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc json);
  Format.fprintf fmt "(appended to %s)@." path

let run_perf ctx fmt =
  run_adversary_scaling ctx fmt;
  run_scaling ctx fmt;
  run_bb_scaling ctx fmt;
  run_kernel_bench ctx fmt;
  run_churn_bench ctx fmt;
  run_serve_bench ctx fmt;
  run_dst_bench ctx fmt;
  run_analysis_caching ctx fmt;
  run_topology_scaling ctx fmt;
  run_telemetry_overhead ctx fmt;
  if not ctx.quick then run_micro fmt

(* ------------------------------------------------------------------ *)
(* Artefact table                                                      *)

let artefacts : (string * string * (ctx -> Format.formatter -> unit)) list =
  [
    ("fig2", "Fig 2", fun ctx fmt -> Experiments.Fig2.print ?pool:ctx.pool fmt);
    ("fig3", "Fig 3", fun _ fmt -> Experiments.Fig3.print fmt);
    ("fig4", "Fig 4", fun _ fmt -> Experiments.Fig4.print fmt);
    ("fig5", "Fig 5", fun ctx fmt -> Experiments.Fig5.print_fig5 ?pool:ctx.pool fmt);
    ("fig6", "Fig 6", fun ctx fmt -> Experiments.Fig5.print_fig6 ?pool:ctx.pool fmt);
    ("fig7", "Fig 7", fun ctx fmt -> Experiments.Fig7.print ?pool:ctx.pool fmt);
    ("fig8", "Fig 8", fun _ fmt -> Experiments.Fig8.print fmt);
    ("fig9", "Fig 9", fun ctx fmt -> Experiments.Fig9.print ?pool:ctx.pool fmt);
    ("fig10", "Fig 10", fun _ fmt -> Experiments.Fig10.print fmt);
    ("fig11", "Fig 11", fun _ fmt -> Experiments.Fig11.print fmt);
    ("theorem1", "Theorem 1", fun _ fmt -> Experiments.Theorem1.print fmt);
    ( "ablation-adversary", "Ablation: adversary",
      fun _ fmt -> Experiments.Ablation.print_adversary fmt );
    ( "ablation-random", "Ablation: random placement",
      fun _ fmt -> Experiments.Ablation.print_random fmt );
    ( "ablation-load", "Ablation: load balance",
      fun _ fmt -> Experiments.Ablation.print_load fmt );
    ( "ablation-online", "Ablation: online vs offline",
      fun _ fmt -> Experiments.Ablation.print_online fmt );
    ( "baseline-copyset", "Baseline: copyset replication",
      fun _ fmt -> Experiments.Baseline.print fmt );
    ( "domain-grid", "Domain grid: node vs rack adversary",
      fun ctx fmt -> Experiments.Domain_grid.print ?pool:ctx.pool fmt );
    ("perf", "Perf (scaling + Bechamel micro-benchmarks)", run_perf);
    ( "scaling", "Adversary scaling sweep (n×b grid, CSR + sharded CELF)",
      run_scaling );
    ( "bb-scaling", "Exact adversary: sharded frontier vs branch-parallel",
      run_bb_scaling );
    ( "churn-trace", "Churn trace (continuous engine, incremental re-score)",
      run_churn_bench );
    ( "serve-pipe", "Serve protocol overhead (serve loop vs raw applies)",
      run_serve_bench );
    ( "dst-sweep", "Deterministic simulation sweep (invariant-checked runs)",
      run_dst_bench );
  ]

let run_one ctx (name, title, print) =
  (* Render once into a buffer so expensive artefacts are not recomputed
     when also writing to a file. *)
  let buf = Buffer.create 4096 in
  let bfmt = Format.formatter_of_buffer buf in
  print ctx bfmt;
  Format.pp_print_flush bfmt ();
  let text = Buffer.contents buf in
  let stdout_fmt = Format.std_formatter in
  Format.fprintf stdout_fmt "@.==== %s ====@.%s" title text;
  match ctx.out with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".txt") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc text);
      Format.fprintf stdout_fmt "(written to %s)@." path

let run_quick ctx =
  let fmt = Format.std_formatter in
  Format.fprintf fmt "@.==== Quick subset ====@.";
  Experiments.Fig4.print fmt;
  Experiments.Fig8.print fmt;
  Experiments.Fig11.print fmt;
  Experiments.Theorem1.print fmt;
  ignore ctx

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec split_flags acc out jobs quick = function
    | "--out" :: dir :: rest -> split_flags acc (Some dir) jobs quick rest
    | "--quick" :: rest -> split_flags acc out jobs true rest
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j -> split_flags acc out j quick rest
        | None ->
            Format.eprintf "-j expects an integer, got %S@." n;
            exit 2)
    | x :: rest -> split_flags (x :: acc) out jobs quick rest
    | [] -> (List.rev acc, out, jobs, quick)
  in
  let selectors, out, jobs, quick =
    split_flags [] None (Engine.Pool.default_domains ()) false args
  in
  let jobs = max 1 jobs in
  (match out with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let with_ctx f =
    if jobs = 1 then f { pool = None; jobs; out; quick }
    else
      Engine.Pool.with_pool ~domains:jobs (fun pool ->
          f { pool = Some pool; jobs; out; quick })
  in
  with_ctx (fun ctx ->
      match selectors with
      | [] | [ "all" ] -> List.iter (run_one ctx) artefacts
      | [ "quick" ] -> run_quick ctx
      | names ->
          List.iter
            (fun name ->
              match List.find_opt (fun (n, _, _) -> n = name) artefacts with
              | Some artefact -> run_one ctx artefact
              | None ->
                  Format.eprintf "unknown artefact %S@." name;
                  exit 2)
            names)
