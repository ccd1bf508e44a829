(* End-to-end sanity tests on the experiment drivers: the reproduction
   pipeline must keep producing internally consistent artefacts. *)

let test_fig2_gap_nonnegative () =
  (* The adversary's Avail can never beat the lower bound. *)
  List.iter
    (fun (p : Experiments.Fig2.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "gap >= 0 at s=%d k=%d b=%d" p.s p.k p.b)
        true (p.gap >= 0))
    (Experiments.Fig2.compute ~bs:[ 600; 1200 ] ())

let test_fig2_exact_for_small_k () =
  let pts = Experiments.Fig2.compute ~bs:[ 600 ] () in
  List.iter
    (fun (p : Experiments.Fig2.point) ->
      if p.k <= 3 then
        Alcotest.(check bool) "small k uses exact adversary" true p.exact)
    pts

let test_fig3_ratio_bounds () =
  List.iter
    (fun (p : Experiments.Fig3.point) ->
      Alcotest.(check bool) "ratio <= 100" true (p.ratio_pct <= 100.0 +. 1e-9);
      Alcotest.(check bool) "ratio >= 90 (paper: stays high)" true
        (p.ratio_pct >= 90.0);
      if p.k' = p.k_configured then
        Alcotest.(check (float 1e-9)) "k'=k gives 100%" 100.0 p.ratio_pct)
    (Experiments.Fig3.compute ())

let test_fig3_reconfigured_is_optimal () =
  (* The k'-configured bound can never be below the k-configured one when
     both are evaluated at k'. *)
  List.iter
    (fun (p : Experiments.Fig3.point) ->
      Alcotest.(check bool) "optimality" true
        (p.lb_reconfigured >= p.lb_configured))
    (Experiments.Fig3.compute ())

let test_fig5_fraction_monotone () =
  let curves = Experiments.Fig5.compute_fig5 ~n_lo:50 ~n_hi:120 () in
  List.iter
    (fun (c : Experiments.Fig5.curve) ->
      let f0 = Experiments.Fig5.fraction_below c 0.0 in
      let f5 = Experiments.Fig5.fraction_below c 0.5 in
      let f10 = Experiments.Fig5.fraction_below c 1.0 in
      Alcotest.(check bool) "monotone thresholds" true (f0 <= f5 && f5 <= f10);
      Alcotest.(check (float 1e-9)) "everything below 1.0" 1.0 f10)
    curves

let test_fig5_trivial_strengths_perfect () =
  (* x = r-1 (complete designs) and x = 0 (partitions) have gap ~0
     everywhere. *)
  let curves = Experiments.Fig5.compute_fig5 ~n_lo:50 ~n_hi:90 () in
  List.iter
    (fun (c : Experiments.Fig5.curve) ->
      if c.x = c.r - 1 then
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "r=%d x=%d all-zero gap" c.r c.x)
          1.0
          (Experiments.Fig5.fraction_below c 0.0))
    curves

let test_fig6_mu_improves_x2 () =
  (* The paper's Fig. 6 headline: mu <= 10 dramatically improves the
     r=5, x=2 case relative to mu = 1. *)
  let mu1 =
    List.find
      (fun (c : Experiments.Fig5.curve) -> c.x = 2)
      (Experiments.Fig5.compute_fig5 ~n_lo:50 ~n_hi:150 ()
      |> List.filter (fun (c : Experiments.Fig5.curve) -> c.r = 5))
  in
  let mu10 =
    List.find
      (fun (c : Experiments.Fig5.curve) -> c.x = 2 && c.max_mu = 10)
      (Experiments.Fig5.compute_fig6 ~n_lo:50 ~n_hi:150 ())
  in
  Alcotest.(check bool) "mu<=10 at least 5x better at gap<=0.1" true
    (Experiments.Fig5.fraction_below mu10 0.1
    >= 5.0 *. Experiments.Fig5.fraction_below mu1 0.1)

let test_fig8_fractions () =
  let pts = Experiments.Fig8.compute ~b:3840 () in
  List.iter
    (fun (p : Experiments.Fig8.point) ->
      Alcotest.(check bool) "fraction in [0,1]" true
        (p.fraction >= 0.0 && p.fraction <= 1.0))
    pts;
  (* Larger s (harder to kill) means more availability, same n/r/k. *)
  let get s k =
    (List.find
       (fun (p : Experiments.Fig8.point) -> p.s = s && p.n = 71 && p.r = 5 && p.k = k)
       pts)
      .fraction
  in
  Alcotest.(check bool) "s=2 >= s=1" true (get 2 5 >= get 1 5);
  Alcotest.(check bool) "s=3 >= s=2" true (get 3 5 >= get 2 5)

let test_fig9_cell_consistency () =
  let cell = Experiments.Fig9.cell_value ~n:71 ~r:3 ~s:3 ~k:4 ~b:2400 in
  Alcotest.(check bool) "lb in [0,b]" true
    (cell.Experiments.Fig9.lb >= 0 && cell.Experiments.Fig9.lb <= 2400);
  Alcotest.(check bool) "prAvail in [0,b]" true
    (cell.Experiments.Fig9.pr_avail >= 0 && cell.Experiments.Fig9.pr_avail <= 2400);
  match cell.Experiments.Fig9.pct with
  | None -> Alcotest.fail "expected comparable cell"
  | Some pct -> Alcotest.(check bool) "pct <= 100" true (pct <= 100.0)

let test_fig9_known_signs () =
  (* The paper's qualitative headline: Combo wins at r=2, s=2 across the
     board at n=71, and loses at r=5, s=2, very large b. *)
  let win = Experiments.Fig9.cell_value ~n:71 ~r:2 ~s:2 ~k:2 ~b:2400 in
  (match win.Experiments.Fig9.pct with
  | Some v -> Alcotest.(check bool) "combo wins" true (v > 0.0)
  | None -> Alcotest.fail "expected comparable cell");
  let lose = Experiments.Fig9.cell_value ~n:71 ~r:5 ~s:2 ~k:7 ~b:38400 in
  match lose.Experiments.Fig9.pct with
  | Some v -> Alcotest.(check bool) "random wins at extreme b" true (v < 0.0)
  | None -> Alcotest.fail "expected comparable cell"

let test_fig10_combo_at_least_best_simple () =
  List.iter
    (fun (row : Experiments.Fig10.row) ->
      match (row.simple1_pct, row.simple2_pct, row.combo_pct) with
      | Some s1, Some s2, Some c ->
          Alcotest.(check bool)
            (Printf.sprintf "combo >= max(simples) at n=%d b=%d k=%d" row.n
               row.b row.k)
            true
            (c >= Float.max s1 s2 -. 1e-9)
      | _ -> ())
    (Experiments.Fig10.compute ~ns:[ 31 ] ~bs:[ 600; 2400; 4800 ] ())

let test_fig11_lemma4_bounds () =
  List.iter
    (fun (p : Experiments.Fig11.point) ->
      Alcotest.(check bool) "lemma4 >= prAvail/b" true
        (p.lemma4_fraction >= p.pr_avail_fraction -. 1e-9))
    (Experiments.Fig11.compute ~b:3840 ())

let test_theorem1_rows () =
  List.iter
    (fun (row : Experiments.Theorem1.row) ->
      match row.c with
      | Some c ->
          Alcotest.(check bool) "c > 1" true (c > 1.0);
          Alcotest.(check bool) "alpha > 0" true (Option.get row.alpha > 0.0)
      | None -> ())
    (Experiments.Theorem1.compute ())

let test_ablation_adversary_ordering () =
  List.iter
    (fun (row : Experiments.Ablation.adversary_row) ->
      match row.exact_failed with
      | Some e ->
          Alcotest.(check bool) "greedy <= exact" true (row.greedy_failed <= e)
      | None -> ())
    (Experiments.Ablation.adversary ())

let test_baseline_invariants () =
  List.iter
    (fun (row : Experiments.Baseline.row) ->
      Alcotest.(check bool) "combo lb <= measured combo avail" true
        (row.combo_lb <= row.combo_avail);
      Alcotest.(check bool) "all avails within [0,b]" true
        (List.for_all
           (fun v -> v >= 0 && v <= row.b)
           [ row.combo_avail; row.random_avail; row.copyset_avail;
             row.copyset_wide_avail ]))
    (Experiments.Baseline.compute ())

let test_ablation_online_soundness () =
  List.iter
    (fun (row : Experiments.Ablation.online_row) ->
      Alcotest.(check bool) "online <= offline" true
        (row.online_lb <= row.offline_lb))
    (Experiments.Ablation.online ())

let test_render_table () =
  let out =
    Experiments.Render.table ~headers:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "contains separator" true
    (String.length out > 0 && String.contains out '-');
  Alcotest.(check string) "pct" "-25" (Experiments.Render.pct (-25.0))

let () =
  Alcotest.run "experiments"
    [
      ( "fig2",
        [
          Alcotest.test_case "gap nonnegative" `Slow test_fig2_gap_nonnegative;
          Alcotest.test_case "exact for small k" `Slow test_fig2_exact_for_small_k;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "ratio bounds" `Quick test_fig3_ratio_bounds;
          Alcotest.test_case "reconfigured optimal" `Quick
            test_fig3_reconfigured_is_optimal;
        ] );
      ( "fig5-6",
        [
          Alcotest.test_case "fractions monotone" `Slow test_fig5_fraction_monotone;
          Alcotest.test_case "trivial strengths perfect" `Slow
            test_fig5_trivial_strengths_perfect;
          Alcotest.test_case "mu improves x=2" `Slow test_fig6_mu_improves_x2;
        ] );
      ( "fig8",
        [ Alcotest.test_case "fractions + monotone s" `Quick test_fig8_fractions ] );
      ( "fig9",
        [
          Alcotest.test_case "cell consistency" `Quick test_fig9_cell_consistency;
          Alcotest.test_case "known signs" `Quick test_fig9_known_signs;
        ] );
      ( "fig10",
        [
          Alcotest.test_case "combo >= simples" `Quick
            test_fig10_combo_at_least_best_simple;
        ] );
      ( "fig11",
        [ Alcotest.test_case "lemma4 dominates" `Quick test_fig11_lemma4_bounds ] );
      ( "theorem1",
        [ Alcotest.test_case "constants sane" `Quick test_theorem1_rows ] );
      ( "ablation",
        [
          Alcotest.test_case "adversary ordering" `Slow
            test_ablation_adversary_ordering;
        ] );
      ( "baseline",
        [ Alcotest.test_case "copyset invariants" `Slow test_baseline_invariants ] );
      ( "ablation-online",
        [ Alcotest.test_case "online soundness" `Quick test_ablation_online_soundness ] );
      ("render", [ Alcotest.test_case "table/pct" `Quick test_render_table ]);
    ]
