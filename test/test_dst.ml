(* Tests for the deterministic simulation testing harness (lib/dst)
   and its supporting surfaces: Dsim.Inject, Adaptive.peek / the
   advise-create query, scenario profiles, the invariant registry,
   and the shrinker. *)

let qtest ?(count = 100) name gen prop =
  (* Fixed random state: property tests must be reproducible. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xD57D57 |])
    (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let pt = Dsim.Inject.register "dst/test_point"

let test_inject_disarmed () =
  Dsim.Inject.without (fun () ->
      Alcotest.(check bool) "disarmed never fires" false (Dsim.Inject.fire pt);
      Alcotest.(check int) "no checks tallied" 0 (Dsim.Inject.checks ());
      Alcotest.(check int) "no fires tallied" 0 (Dsim.Inject.fired ()))

let test_inject_registry () =
  let again = Dsim.Inject.register "dst/test_point" in
  Alcotest.(check string)
    "find-or-create returns the same point" (Dsim.Inject.name pt)
    (Dsim.Inject.name again);
  Alcotest.(check bool)
    "engine points registered" true
    (List.mem "dst/capacity_preflight" (Dsim.Inject.points ())
    && List.mem "dst/rescore" (Dsim.Inject.points ())
    && List.mem "dst/io_partial_line" (Dsim.Inject.points ()))

let decisions ~seed ~rate ~hits =
  Dsim.Inject.with_arming ~seed ~rate (fun () ->
      let ds = List.init hits (fun _ -> Dsim.Inject.fire pt) in
      (ds, Dsim.Inject.checks (), Dsim.Inject.fired ()))

let test_inject_deterministic () =
  let d1, c1, f1 = decisions ~seed:11 ~rate:4 ~hits:200 in
  let d2, c2, f2 = decisions ~seed:11 ~rate:4 ~hits:200 in
  Alcotest.(check (list bool)) "same seed, same plan" d1 d2;
  Alcotest.(check int) "checks equal" c1 c2;
  Alcotest.(check int) "fired equal" f1 f2;
  Alcotest.(check int) "every fire call checked" 200 c1;
  Alcotest.(check bool) "rate 4 fires sometimes" true (f1 > 0);
  Alcotest.(check bool) "rate 4 spares sometimes" true (f1 < 200);
  let d3, _, _ = decisions ~seed:12 ~rate:4 ~hits:200 in
  Alcotest.(check bool) "different seed, different plan" true (d1 <> d3)

let test_inject_rate_one () =
  let ds, _, f = decisions ~seed:3 ~rate:1 ~hits:50 in
  Alcotest.(check bool) "rate 1 always fires" true
    (List.for_all (fun d -> d) ds);
  Alcotest.(check int) "all tallied" 50 f

let test_inject_without_nested () =
  Dsim.Inject.with_arming ~seed:1 ~rate:1 (fun () ->
      Alcotest.(check bool) "armed fires" true (Dsim.Inject.fire pt);
      Dsim.Inject.without (fun () ->
          Alcotest.(check bool) "nested without disarms" false
            (Dsim.Inject.fire pt));
      Alcotest.(check bool) "arming restored" true (Dsim.Inject.fire pt))

(* ------------------------------------------------------------------ *)
(* Scenario profiles *)

let test_profile_catalogue () =
  Alcotest.(check bool)
    "the four profiles are listed" true
    (List.for_all
       (fun nm -> List.mem nm Dst.Profile.names)
       [ "steady"; "storm"; "membership"; "cascade" ]);
  Alcotest.(check bool) "find steady" true (Dst.Profile.find "steady" <> None);
  Alcotest.(check bool) "find bogus" true (Dst.Profile.find "bogus" = None)

let profile_gen =
  QCheck2.Gen.(
    pair (oneofl Dst.Profile.all) (pair (int_range 1 5000) (int_range 8 32)))

let test_profile_deterministic =
  qtest ~count:40 "generation is a pure function of (profile, n, seed)"
    profile_gen
    (fun (p, (seed, n)) ->
      let gen () =
        Dst.Profile.generate p ~n ~seed ~steps:120 ~measure_every:30
      in
      gen () = gen ())

let test_profile_valid_by_construction =
  qtest ~count:40 "every generated event is accepted by a fresh engine"
    profile_gen
    (fun (p, (seed, n)) ->
      let history =
        Dst.Profile.generate p ~n ~seed ~steps:150 ~measure_every:40
      in
      let eng =
        Dsim.Churn.create
          ?topology:(Dst.Profile.topology p ~n)
          ~n ~r:3 ~s:2 ~k:2 ()
      in
      List.for_all
        (fun ev ->
          match Dsim.Churn.apply eng ev with
          | _ -> true
          | exception Invalid_argument _ -> false)
        history)

let test_profile_phases_cover_steps () =
  let p = Option.get (Dst.Profile.find "storm") in
  let history =
    Dst.Profile.generate p ~n:20 ~seed:9 ~steps:200 ~measure_every:0
  in
  (* No pulses: the history is exactly the requested weighted draws. *)
  Alcotest.(check int) "steps honoured" 200 (List.length history)

(* ------------------------------------------------------------------ *)
(* Advisory routing: peek ≡ add *)

let test_advise_matches_create () =
  let eng = Dsim.Churn.create ~n:12 ~r:3 ~s:2 ~k:2 () in
  for i = 0 to 39 do
    let advice = Dsim.Churn.advise_create eng in
    let _step = Dsim.Churn.apply eng Dsim.Event.Object_create in
    let layout = Dsim.Churn.layout eng in
    let row =
      Array.copy
        layout.Placement.Layout.replicas.(Array.length
                                            layout.Placement.Layout.replicas
                                          - 1)
    in
    Array.sort compare row;
    let advice = Array.copy advice in
    Array.sort compare advice;
    Alcotest.(check (array int))
      (Printf.sprintf "create %d lands on the advised nodes" i)
      advice row
  done

(* The same contract under churn: leaves block pool blocks, deletes open
   stale hints, and at s = 3 the lazy complete level pulls (and skips
   blocked) fresh blocks — every branch of the slot chooser is reached
   before some create. *)
let advise_churn_gen =
  QCheck2.Gen.(
    quad
      (oneofl [ "membership"; "storm" ])
      (int_range 8 16) (oneofl [ 2; 3 ]) (int_range 1 5000))

let test_advise_matches_create_under_churn =
  qtest ~count:30 "advise = create under churn" advise_churn_gen
    (fun (profile, n, s, seed) ->
      let p = Option.get (Dst.Profile.find profile) in
      let eng =
        Dsim.Churn.create ?topology:(Dst.Profile.topology p ~n) ~n ~r:3 ~s
          ~k:2 ()
      in
      let history =
        Dst.Profile.generate p ~n ~seed ~steps:150 ~measure_every:0
      in
      List.for_all
        (fun ev ->
          let advice =
            match ev with
            | Dsim.Event.Object_create -> (
                try Some (Dsim.Churn.advise_create eng)
                with Invalid_argument _ -> None)
            | _ -> None
          in
          match Dsim.Churn.apply eng ev with
          | exception Invalid_argument _ ->
              (* A refused create must have been refused by the advice. *)
              ev <> Dsim.Event.Object_create || advice = None
          | _ -> (
              match (ev, advice) with
              | Dsim.Event.Object_create, None -> false
              | Dsim.Event.Object_create, Some advice ->
                  let rows =
                    (Dsim.Churn.layout eng).Placement.Layout.replicas
                  in
                  let row = Array.copy rows.(Array.length rows - 1) in
                  Array.sort compare row;
                  advice = row
              | _ -> true))
        history)

let test_advise_does_not_perturb () =
  let drive peeking =
    let eng = Dsim.Churn.create ~n:12 ~r:3 ~s:2 ~k:2 () in
    let history =
      Dst.Profile.generate
        (Option.get (Dst.Profile.find "steady"))
        ~n:12 ~seed:4 ~steps:100 ~measure_every:0
    in
    List.iter
      (fun ev ->
        if peeking then ignore (Dsim.Churn.advise_create eng);
        ignore (Dsim.Churn.apply eng ev))
      history;
    (Dsim.Churn.layout eng).Placement.Layout.replicas
  in
  Alcotest.(check bool)
    "peeking between events never moves later placements" true
    (drive true = drive false)

let test_api_advise_query () =
  let eng = Dsim.Churn.create ~n:8 ~r:3 ~s:2 ~k:2 () in
  let session = Dsim.Api.make eng in
  let req =
    match Dsim.Api.parse_request "advise create" with
    | Ok (Some r) -> r
    | _ -> Alcotest.fail "advise create must parse"
  in
  let expected = Dsim.Churn.advise_create eng in
  (match Dsim.Api.exec session req with
  | Dsim.Api.Advice { nodes; live } ->
      Alcotest.(check (array int)) "advice nodes" expected nodes;
      Alcotest.(check int) "live echo" 0 live
  | _ -> Alcotest.fail "expected an Advice response");
  (* The query is read-only: the engine applied nothing. *)
  Alcotest.(check int) "no events applied" 0 (Dsim.Churn.events eng)

(* ------------------------------------------------------------------ *)
(* Harness *)

let mk_config ?(seed = 1) ?(steps = 120) ?(inject_rate = 0) ?(breaks = [])
    ?(profile = "steady") ?strategy () =
  {
    Dst.Harness.n = 16;
    r = 3;
    s = 2;
    k = 2;
    seed;
    steps;
    measure_every = 30;
    profile = Option.get (Dst.Profile.find profile);
    strategy;
    inject_rate;
    break_invariants = breaks;
    extra_invariants = [];
  }

let test_harness_clean_run () =
  let out =
    Dst.Harness.run
      (mk_config ~strategy:(Option.get (Placement.Strategies.find "combo")) ())
  in
  Alcotest.(check bool) "no violation" true (out.Dst.Harness.violation = None);
  Alcotest.(check bool) "events ran" true (out.Dst.Harness.applied > 0);
  Alcotest.(check int) "all applied" out.Dst.Harness.events
    (out.Dst.Harness.applied + out.Dst.Harness.rejected)

let test_harness_deterministic () =
  let cfg = mk_config ~profile:"storm" ~inject_rate:15 () in
  Alcotest.(check bool)
    "identical outcomes for identical configs" true
    (Dst.Harness.run cfg = Dst.Harness.run cfg)

let test_harness_injection_absorbed () =
  let cfg = mk_config ~seed:2 ~profile:"storm" ~inject_rate:10 () in
  let out = Dst.Harness.run cfg in
  Alcotest.(check bool) "faults fired" true (out.Dst.Harness.injected_fired > 0);
  Alcotest.(check bool)
    "faults surface as rejections, never violations" true
    (out.Dst.Harness.violation = None)

let test_harness_sweep_pool_invariant () =
  let configs =
    Array.of_list
      (List.concat_map
         (fun profile ->
           List.map
             (fun seed -> mk_config ~seed ~profile ~inject_rate:20 ())
             [ 1; 2; 3 ])
         [ "steady"; "membership" ])
  in
  let seq = Dst.Harness.sweep configs in
  let par =
    Engine.Pool.with_pool ~domains:4 (fun pool ->
        Dst.Harness.sweep ~pool configs)
  in
  Alcotest.(check bool) "pool fan-out is bit-identical" true (seq = par)

let test_harness_canary_trips () =
  let out =
    Dst.Harness.run (mk_config ~breaks:[ "canary/full-availability" ] ())
  in
  match out.Dst.Harness.violation with
  | Some v ->
      Alcotest.(check string)
        "the canary is the tripped invariant" "canary/full-availability"
        v.Dst.Harness.invariant
  | None -> Alcotest.fail "the canary invariant must trip"

let test_harness_unknown_canary () =
  Alcotest.(check bool) "unknown canary rejected" true
    (try
       ignore (Dst.Harness.run (mk_config ~breaks:[ "canary/nope" ] ()));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let test_shrink_requires_violation () =
  let cfg = mk_config () in
  Alcotest.(check bool) "clean history refused" true
    (try
       ignore
         (Dst.Shrink.run ~config:cfg
            ~history:(Dst.Harness.default_history cfg)
            ~invariant:"canary/full-availability");
       false
     with Invalid_argument _ -> true)

let test_shrink_repro_replays =
  qtest ~count:8
    "a shrunk repro replays to the same violation, deterministically"
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let cfg =
        mk_config ~seed ~steps:60 ~breaks:[ "canary/full-availability" ] ()
      in
      let history = Dst.Harness.default_history cfg in
      match (Dst.Harness.run cfg).Dst.Harness.violation with
      | None -> QCheck2.assume_fail ()
      | Some v ->
          let inv = v.Dst.Harness.invariant in
          let res = Dst.Shrink.run ~config:cfg ~history ~invariant:inv in
          let replayed =
            (Dst.Harness.run ~history:res.Dst.Shrink.history cfg)
              .Dst.Harness.violation
          in
          let again = Dst.Shrink.run ~config:cfg ~history ~invariant:inv in
          List.length res.Dst.Shrink.history <= List.length history
          && (match replayed with
             | Some v' -> v'.Dst.Harness.invariant = inv
             | None -> false)
          && again.Dst.Shrink.history = res.Dst.Shrink.history)

let test_shrink_repro_file_round_trips () =
  let cfg =
    mk_config ~seed:5 ~steps:80 ~breaks:[ "canary/full-availability" ] ()
  in
  let history = Dst.Harness.default_history cfg in
  let v =
    match (Dst.Harness.run cfg).Dst.Harness.violation with
    | Some v -> v
    | None -> Alcotest.fail "expected the canary to trip"
  in
  let res =
    Dst.Shrink.run ~config:cfg ~history ~invariant:v.Dst.Harness.invariant
  in
  let lines = Dst.Shrink.repro_lines ~config:cfg res in
  (* The header is comments; the event body parses back to the
     minimized history and still reproduces the violation. *)
  let parsed =
    match Dsim.Event.parse_string (String.concat "\n" lines) with
    | Ok evs -> evs
    | Error _ -> Alcotest.fail "repro file must parse"
  in
  Alcotest.(check bool) "parsed history = shrunk history" true
    (parsed = res.Dst.Shrink.history);
  match (Dst.Harness.run ~history:parsed cfg).Dst.Harness.violation with
  | Some v' ->
      Alcotest.(check string) "same invariant trips again"
        v.Dst.Harness.invariant v'.Dst.Harness.invariant
  | None -> Alcotest.fail "parsed repro must still violate"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dst"
    [
      ( "inject",
        [
          Alcotest.test_case "disarmed" `Quick test_inject_disarmed;
          Alcotest.test_case "registry" `Quick test_inject_registry;
          Alcotest.test_case "deterministic" `Quick
            test_inject_deterministic;
          Alcotest.test_case "rate one" `Quick test_inject_rate_one;
          Alcotest.test_case "nested without" `Quick
            test_inject_without_nested;
        ] );
      ( "profile",
        [
          Alcotest.test_case "catalogue" `Quick test_profile_catalogue;
          test_profile_deterministic;
          test_profile_valid_by_construction;
          Alcotest.test_case "steps honoured" `Quick
            test_profile_phases_cover_steps;
        ] );
      ( "advise",
        [
          Alcotest.test_case "peek = add" `Quick test_advise_matches_create;
          test_advise_matches_create_under_churn;
          Alcotest.test_case "peek is pure" `Quick
            test_advise_does_not_perturb;
          Alcotest.test_case "api query" `Quick test_api_advise_query;
        ] );
      ( "harness",
        [
          Alcotest.test_case "clean run" `Quick test_harness_clean_run;
          Alcotest.test_case "deterministic" `Quick
            test_harness_deterministic;
          Alcotest.test_case "injection absorbed" `Quick
            test_harness_injection_absorbed;
          Alcotest.test_case "pool sweep" `Quick
            test_harness_sweep_pool_invariant;
          Alcotest.test_case "canary trips" `Quick test_harness_canary_trips;
          Alcotest.test_case "unknown canary" `Quick
            test_harness_unknown_canary;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "needs a violation" `Quick
            test_shrink_requires_violation;
          test_shrink_repro_replays;
          Alcotest.test_case "file round-trip" `Quick
            test_shrink_repro_file_round_trips;
        ] );
    ]
