(* All tables are built eagerly so a constructed instance is immutable
   plain data: safe to share read-only across Engine.Pool domains (the
   old per-driver Hashtbl caches were not).  with_cell aliases the
   parent's tables, so deriving a grid cell is O(1). *)

type tables = {
  n : int;
  r : int;
  s : int;
  max_mu : int;
  choose_tbl : int array array;  (* C(m, j), m <= n, j <= max r s *)
  levels : Combo.level array;
}

(* [domains = None] is the default map: every node its own domain. *)
type t = { params : Params.t; tables : tables; domains : Spread.domains option }

(* Cache-effectiveness stats: table builds are the expensive path,
   cell_aliases / param_reuses the O(1) sharing hits.  All Stable. *)
let m_builds = Telemetry.Registry.counter "core/instance/table_builds"
let m_aliases = Telemetry.Registry.counter "core/instance/cell_aliases"
let m_reuses = Telemetry.Registry.counter "core/instance/param_reuses"

let build_tables ~max_mu ~n ~r ~s =
  Telemetry.Counter.incr m_builds;
  {
    n;
    r;
    s;
    max_mu;
    choose_tbl = Combin.Binomial.row_table ~rows:n ~cols:(max r s);
    levels = Combo.default_levels ~max_mu ~n ~r ~s ();
  }

let check_domains ~n (d : Spread.domains) =
  if Array.length d.domain_of <> n then
    invalid_arg
      (Printf.sprintf "Instance: the domain map covers %d nodes but n = %d"
         (Array.length d.domain_of) n);
  if d.cap < 1 then
    invalid_arg (Printf.sprintf "Instance: spread cap %d must be >= 1" d.cap);
  if Array.exists (fun id -> id < 0) d.domain_of then
    invalid_arg "Instance: the domain map has a negative domain id"

let of_params ?(max_mu = 1) ?domains (p : Params.t) =
  Option.iter (check_domains ~n:p.n) domains;
  { params = p; tables = build_tables ~max_mu ~n:p.n ~r:p.r ~s:p.s; domains }

let make ?max_mu ?domains ~b ~r ~s ~n ~k () =
  of_params ?max_mu ?domains (Params.make ~b ~r ~s ~n ~k)

let with_params t (p : Params.t) =
  let { n; r; s; max_mu; _ } = t.tables in
  if p.n <> n && t.domains <> None then
    invalid_arg "Instance.with_params: n changes under an explicit domain map";
  if p.n = n && p.r = r && p.s = s then begin
    Telemetry.Counter.incr m_reuses;
    { t with params = p }
  end
  else { t with params = p; tables = build_tables ~max_mu ~n:p.n ~r:p.r ~s:p.s }

let with_cell t ~b ~k =
  let p = t.params in
  Telemetry.Counter.incr m_aliases;
  { t with params = Params.make ~b ~r:p.r ~s:p.s ~n:p.n ~k }

let params t = t.params
let pp fmt t = Params.pp fmt t.params

let choose t m j =
  let tbl = t.tables.choose_tbl in
  if m >= 0 && m < Array.length tbl && j >= 0 && j < Array.length tbl.(0) then begin
    let v = tbl.(m).(j) in
    if v >= 0 then v else Combin.Binomial.exact m j
  end
  else Combin.Binomial.exact m j

let levels t = t.tables.levels
let load_cap t = Params.load_cap t.params

(* The default map, that of a one-level node:n topology.  Built here
   rather than in Spread so that binaries which never plan a spread
   family do not link Spread. *)
let domains t =
  match t.domains with
  | Some d -> d
  | None ->
      let n = t.params.n in
      {
        Spread.domain_of = Array.init n Fun.id;
        cap = 1;
        level = "node";
        summary = Printf.sprintf "%d nodes, 1 levels: node x%d" n n;
      }

let combo_config t = Combo.optimize ~choose:(choose t) ~levels:t.tables.levels t.params

let combo_layout ?spread ?config t =
  let config = match config with Some c -> c | None -> combo_config t in
  Combo.materialize ?spread config

let random_layout ~rng t = Random_placement.place ~rng t.params

let copyset ~rng ?scatter_width t =
  let p = t.params in
  let scatter_width =
    match scatter_width with Some sw -> sw | None -> 2 * (p.r - 1)
  in
  let cs = Copyset.generate ~rng ~n:p.n ~r:p.r ~scatter_width in
  (cs, Copyset.place ~rng cs ~b:p.b)

let pr_avail t = Random_analysis.pr_avail t.params
let rnd_report t = Random_analysis.report t.params

let attack ?pool t layout =
  Adversary.exact ?pool layout ~s:t.params.s ~k:t.params.k

let avail t layout atk = Adversary.avail layout ~s:t.params.s atk
