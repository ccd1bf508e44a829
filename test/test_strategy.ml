(* Property tests over Placement.Strategies.all: every family must
   produce well-formed layouts, respect its advertised capabilities, and
   never promise more than the exact adversary delivers. *)

let qtest ?(count = 100) name gen prop =
  (* Fixed random state: property tests must be reproducible. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x57A7 |])
    (QCheck2.Test.make ~count ~name gen prop)

let strategies = Placement.Strategies.all

(* A strategy may legitimately decline an instance (Simple with no
   materialized design, Combo without enough capacity, Optimal over its
   search budget, a spread family whose domain cap leaves fewer than r
   slots); those skips are not failures.  Anything else a plan raises is
   a real bug and propagates. *)
let try_plan (module S : Placement.Strategy.S) ~rng inst =
  match S.plan ~rng inst with
  | layout -> Some layout
  | exception Invalid_argument _ -> None
  | exception Placement.Optimal.Too_large -> None

(* On about half the instances, a random partition of the n nodes into
   fault domains (ids renumbered densely) at cap 1-2; the rest keep the
   default singleton map. *)
let domains_gen n =
  QCheck2.Gen.(
    let* attach = bool in
    if not attach then return None
    else
      let* count = int_range 1 n in
      let* ids = array_repeat n (int_range 0 (count - 1)) in
      let* cap = int_range 1 2 in
      let distinct = List.sort_uniq compare (Array.to_list ids) in
      let rank id = List.length (List.filter (fun d -> d < id) distinct) in
      return
        (Some
           {
             Placement.Spread.domain_of = Array.map rank ids;
             cap;
             level = "rack";
             summary = "random partition";
           }))

let instance_gen =
  QCheck2.Gen.(
    let* n = int_range 7 31 in
    let* r = int_range 2 (min 3 n) in
    let* s = int_range 1 r in
    let* k = int_range s (min 5 (n - 1)) in
    let* b = int_range 1 60 in
    let* domains = domains_gen n in
    let* seed = int_range 0 10000 in
    return (Placement.Instance.make ?domains ~b ~r ~s ~n ~k (), seed))

(* Tiny instances where the branch-and-bound adversary is exact. *)
let small_instance_gen =
  QCheck2.Gen.(
    let* n = int_range 5 9 in
    let* r = int_range 2 (min 3 n) in
    let* s = int_range 1 r in
    let* k = int_range s (min 3 (n - 1)) in
    let* b = int_range 1 12 in
    let* domains = domains_gen n in
    let* seed = int_range 0 10000 in
    return (Placement.Instance.make ?domains ~b ~r ~s ~n ~k (), seed))

let sorted rep =
  let c = Array.copy rep in
  Array.sort compare c;
  c

let test_plan_well_formed =
  qtest ~count:60 "every strategy's plan: r distinct in-range replicas"
    instance_gen
    (fun (inst, seed) ->
      let p = Placement.Instance.params inst in
      List.for_all
        (fun (module S : Placement.Strategy.S) ->
          match try_plan (module S) ~rng:(Combin.Rng.create seed) inst with
          | None -> true
          | Some layout ->
              Placement.Layout.b layout = p.Placement.Params.b
              && layout.Placement.Layout.n = p.Placement.Params.n
              && Array.for_all
                   (fun rep ->
                     Array.length rep = p.Placement.Params.r
                     && Array.for_all
                          (fun nd -> nd >= 0 && nd < p.Placement.Params.n)
                          rep
                     && List.length (List.sort_uniq compare (Array.to_list rep))
                        = p.Placement.Params.r)
                   layout.Placement.Layout.replicas)
        strategies)

let test_load_cap_respected =
  qtest ~count:60 "Load_balanced strategies respect ceil(rb/n)" instance_gen
    (fun (inst, seed) ->
      List.for_all
        (fun (module S : Placement.Strategy.S) ->
          (not (List.mem Placement.Strategy.Load_balanced S.capabilities))
          ||
          match try_plan (module S) ~rng:(Combin.Rng.create seed) inst with
          | None -> true
          | Some layout ->
              Placement.Layout.max_load layout <= Placement.Instance.load_cap inst)
        strategies)

let test_domain_cap_respected =
  qtest ~count:60 "Domain_capped strategies respect the domain cap"
    instance_gen
    (fun (inst, seed) ->
      let domains = Placement.Instance.domains inst in
      List.for_all
        (fun (module S : Placement.Strategy.S) ->
          (not (List.mem Placement.Strategy.Domain_capped S.capabilities))
          ||
          match try_plan (module S) ~rng:(Combin.Rng.create seed) inst with
          | None -> true
          | Some layout ->
              Placement.Spread.max_per_domain layout domains
              <= domains.Placement.Spread.cap)
        strategies)

let test_lower_bound_sound =
  qtest ~count:40 "lower_bound <= exact adversary survivors"
    small_instance_gen
    (fun (inst, seed) ->
      let p = Placement.Instance.params inst in
      List.for_all
        (fun (module S : Placement.Strategy.S) ->
          match try_plan (module S) ~rng:(Combin.Rng.create seed) inst with
          | None -> true
          | Some layout -> (
              match S.lower_bound ~layout inst with
              | None -> true
              | Some lb ->
                  let atk =
                    Placement.Adversary.exact layout ~s:p.Placement.Params.s
                      ~k:p.Placement.Params.k
                  in
                  (* A truncated search is not a witness either way. *)
                  (not atk.Placement.Adversary.exact)
                  || lb
                     <= Placement.Adversary.avail layout ~s:p.Placement.Params.s
                          atk))
        strategies)

let test_codec_round_trip =
  qtest ~count:40 "codec round-trips every strategy's layout" instance_gen
    (fun (inst, seed) ->
      List.for_all
        (fun (module S : Placement.Strategy.S) ->
          match try_plan (module S) ~rng:(Combin.Rng.create seed) inst with
          | None -> true
          | Some layout -> (
              match
                Placement.Codec.of_string (Placement.Codec.to_string layout)
              with
              | Error _ -> false
              | Ok layout' ->
                  layout'.Placement.Layout.n = layout.Placement.Layout.n
                  && layout'.Placement.Layout.r = layout.Placement.Layout.r
                  (* the codec normalizes replica order on read *)
                  && Array.map sorted layout'.Placement.Layout.replicas
                     = Array.map sorted layout.Placement.Layout.replicas))
        strategies)

(* ------------------------------------------------------------------ *)
(* The strategy list *)

let test_registry () =
  Alcotest.(check (list string))
    "all eight families listed"
    [
      "adaptive"; "combo"; "copyset"; "optimal"; "random"; "random-spread";
      "simple"; "simple-spread";
    ]
    Placement.Strategies.names;
  Alcotest.(check (list string))
    "names distinct and sorted"
    (List.sort_uniq compare Placement.Strategies.names)
    Placement.Strategies.names;
  List.iter
    (fun name ->
      match Placement.Strategies.find name with
      | Some (module S) -> Alcotest.(check string) "find resolves" name S.name
      | None -> Alcotest.fail (name ^ " not found"))
    Placement.Strategies.names;
  Alcotest.(check bool) "unknown name" true
    (Placement.Strategies.find "bogus" = None)

let test_capabilities_coherent () =
  List.iter
    (fun (module S : Placement.Strategy.S) ->
      let det = List.mem Placement.Strategy.Deterministic S.capabilities in
      let rnd = List.mem Placement.Strategy.Randomized S.capabilities in
      Alcotest.(check bool)
        (S.name ^ ": deterministic xor randomized")
        true
        (det <> rnd))
    strategies;
  (* Deterministic strategies must ignore the rng. *)
  let inst = Placement.Instance.make ~b:40 ~r:3 ~s:2 ~n:13 ~k:3 () in
  List.iter
    (fun (module S : Placement.Strategy.S) ->
      if List.mem Placement.Strategy.Deterministic S.capabilities then
        match
          ( try_plan (module S) ~rng:(Combin.Rng.create 1) inst,
            try_plan (module S) ~rng:(Combin.Rng.create 2) inst )
        with
        | Some a, Some b ->
            Alcotest.(check bool)
              (S.name ^ ": plan independent of rng")
              true
              (a.Placement.Layout.replicas = b.Placement.Layout.replicas)
        | None, None -> ()
        | _ -> Alcotest.fail (S.name ^ ": rng changed plannability"))
    strategies

let () =
  Alcotest.run "strategy"
    [
      ( "registry",
        [
          Alcotest.test_case "registration & lookup" `Quick test_registry;
          Alcotest.test_case "capability coherence" `Quick
            test_capabilities_coherent;
        ] );
      ( "properties",
        [
          test_plan_well_formed;
          test_load_cap_respected;
          test_domain_cap_respected;
          test_lower_bound_sound;
          test_codec_round_trip;
        ] );
    ]
