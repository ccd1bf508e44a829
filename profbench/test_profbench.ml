open Profbench

(* ------------------------------------------------------------------ *)
(* Percentiles and the sample-count rule. *)

let ints n = Array.init n (fun i -> i + 1)

let test_rank () =
  Alcotest.(check int) "median of 1..5" 3 (Option.get (Stats.median (ints 5)));
  Alcotest.(check int) "lower median of 1..4" 2 (Option.get (Stats.median (ints 4)));
  Alcotest.(check int) "median of one" 7 (Option.get (Stats.median [| 7 |]));
  Alcotest.(check (option int)) "median of none" None (Stats.median [||]);
  Alcotest.(check int) "p99 rank at 1000" 989 (Stats.rank ~n:1000 99);
  Alcotest.(check int) "p90 rank at 100" 89 (Stats.rank ~n:100 90)

let test_beyond_rule () =
  (* p99 needs 1000 samples, p90 needs 100: ten must lie beyond. *)
  Alcotest.(check (option int)) "p99 at 999" None (Stats.percentile (ints 999) 99);
  Alcotest.(check (option int)) "p99 at 1000" (Some 990) (Stats.percentile (ints 1000) 99);
  Alcotest.(check (option int)) "p90 at 99" None (Stats.percentile (ints 99) 90);
  Alcotest.(check (option int)) "p90 at 100" (Some 90) (Stats.percentile (ints 100) 90);
  Alcotest.(check (option int)) "empty" None (Stats.percentile [||] 50);
  List.iter
    (fun (n, p) ->
      match Stats.percentile (ints n) p with
      | Some _ -> Alcotest.(check bool) "ten beyond" true (Stats.beyond ~n p >= 10)
      | None -> Alcotest.(check bool) "fewer than ten beyond" true (Stats.beyond ~n p < 10))
    [ (20, 50); (19, 50); (1000, 99); (5000, 99); (110, 90); (1, 99) ]

let test_sorted_copy () =
  let a = [| 3; 1; 2 |] in
  Alcotest.(check (array int)) "sorted" [| 1; 2; 3 |] (Stats.sorted a);
  Alcotest.(check (array int)) "input untouched" [| 3; 1; 2 |] a

(* ------------------------------------------------------------------ *)
(* Generators, at small counts. *)

let small = function
  | Workload.Ingest -> { Workload.population = 0; count = 3_000 }
  | Workload.Outage -> { Workload.population = 800; count = 4_000 }
  | Workload.Worst_query -> { Workload.population = 800; count = 600 }
  | Workload.Attack -> invalid_arg "no script"

let serve_workloads = [ Workload.Ingest; Workload.Outage; Workload.Worst_query ]

let test_script_pure () =
  List.iter
    (fun w ->
      let name = Workload.name w in
      let a = Workload.script w ~seed:7 (small w) in
      Alcotest.(check string) (name ^ " same seed") a (Workload.script w ~seed:7 (small w));
      Alcotest.(check bool) (name ^ " other seed") false (a = Workload.script w ~seed:8 (small w));
      let body = String.sub a 0 (String.length a - 1) in
      Alcotest.(check bool) (name ^ " no blank line") false
        (List.mem "" (String.split_on_char '\n' body)))
    serve_workloads

let test_attack_inputs_pure () =
  let layout seed = Workload.sts_layout (Combin.Rng.create seed) in
  Alcotest.(check bool) "same seed" true
    ((layout 3).Placement.Layout.replicas = (layout 3).Placement.Layout.replicas);
  Alcotest.(check bool) "other seed" false
    ((layout 3).Placement.Layout.replicas = (layout 4).Placement.Layout.replicas)

let with_null f =
  let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close out) (fun () -> f out)

let test_replay_rejects_nothing () =
  List.iter
    (fun w ->
      let spec = small w in
      List.iter
        (fun traced ->
          let session = Workload.session w spec in
          let pass =
            with_null (fun out ->
                Loop.run ~traced session ~out (Workload.script w ~seed:11 spec))
          in
          Alcotest.(check int) (Workload.name w ^ " rejected") 0 pass.Loop.rejected;
          Dsim.Churn.check (Dsim.Api.engine session))
        [ false; true ])
    serve_workloads

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_loop_matches_serve () =
  List.iter
    (fun w ->
      let spec = small w in
      let script = Workload.script w ~seed:5 spec in
      let buf = Buffer.create 4096 in
      ignore
        (with_null (fun out ->
             Loop.run ~on_response:(Buffer.add_string buf) (Workload.session w spec) ~out
               script));
      let input_path = Filename.temp_file "profbench_in" ".txt" in
      let output_path = Filename.temp_file "profbench_out" ".txt" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove input_path;
          Sys.remove output_path)
        (fun () ->
          Out_channel.with_open_bin input_path (fun oc -> output_string oc script);
          let input = Unix.openfile input_path [ Unix.O_RDONLY ] 0 in
          let output = Unix.openfile output_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
          ignore (Dsim.Serve.run (Workload.session w spec) ~input ~output);
          Unix.close input;
          Unix.close output;
          (* Serve ends with a summary envelope the closed loop does not write. *)
          let served = read_file output_path in
          let last = String.rindex_from served (String.length served - 2) '\n' in
          Alcotest.(check string) (Workload.name w) (String.sub served 0 (last + 1))
            (Buffer.contents buf)))
    serve_workloads

let () =
  Alcotest.run "profbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "ten samples beyond a percentile" `Quick test_beyond_rule;
          Alcotest.test_case "sorted copies" `Quick test_sorted_copy;
        ] );
      ( "workload",
        [
          Alcotest.test_case "scripts are pure functions of the seed" `Quick
            test_script_pure;
          Alcotest.test_case "attack inputs are pure functions of the seed" `Quick
            test_attack_inputs_pure;
          Alcotest.test_case "replay rejects nothing" `Quick test_replay_rejects_nothing;
          Alcotest.test_case "closed loop matches Serve.run" `Quick test_loop_matches_serve;
        ] );
    ]
