(* Reproduction harness: regenerates the paper's tables and figures.

   Usage:
     bench/main.exe                     run every artefact
     bench/main.exe fig2                one artefact (see list below)
     bench/main.exe all --out results/  also write one file per artefact
     bench/main.exe -j 4 fig2           fan the artefact grids over 4 domains

   Artefacts: fig2..fig11, theorem1, ablation-adversary, ablation-random,
   ablation-load, ablation-online, baseline-copyset, domain-grid.

   Each figN prints the rows/series of the corresponding figure or table
   of the paper (see DESIGN.md §4 and EXPERIMENTS.md).  `-j N` (default:
   Domain.recommended_domain_count) sizes the Engine.Pool shared by the
   parallel drivers (F2, F5/F6, F7, F9, domain grid); outputs are
   bit-identical at any `-j`.  Performance is measured by `profbench/`. *)

type ctx = {
  pool : Engine.Pool.t option;  (* None when running at -j 1 *)
  out : string option;
}

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

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec split_flags acc out jobs = function
    | "--out" :: dir :: rest -> split_flags acc (Some dir) jobs rest
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j -> split_flags acc out j rest
        | None ->
            Format.eprintf "-j expects an integer, got %S@." n;
            exit 2)
    | x :: rest -> split_flags (x :: acc) out jobs rest
    | [] -> (List.rev acc, out, jobs)
  in
  let selectors, out, jobs =
    split_flags [] None (Engine.Pool.default_domains ()) args
  in
  let jobs = max 1 jobs in
  (match out with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let with_ctx f =
    if jobs = 1 then f { pool = None; out }
    else
      Engine.Pool.with_pool ~domains:jobs (fun pool ->
          f { pool = Some pool; out })
  in
  with_ctx (fun ctx ->
      match selectors with
      | [] | [ "all" ] -> List.iter (run_one ctx) artefacts
      | names ->
          List.iter
            (fun name ->
              match List.find_opt (fun (n, _, _) -> n = name) artefacts with
              | Some artefact -> run_one ctx artefact
              | None ->
                  Format.eprintf "unknown artefact %S@." name;
                  exit 2)
            names)
