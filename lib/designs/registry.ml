type availability =
  | Materialized of ((int array -> unit) -> unit)
  | Literature of string

type entry = {
  name : string;
  strength : int;
  v : int;
  block_size : int;
  mu : int;
  blocks : int;
  source : availability;
}

let is_materialized e = match e.source with Materialized _ -> true | Literature _ -> false
let capacity e = e.blocks

let block_count_of ~strength ~v ~block_size ~mu =
  match
    Combin.Binomial.ratio_exact v strength block_size strength
  with
  | Some c -> mu * c
  | None ->
      (* mu * C(v,t) must be divisible by C(r,t) for a design. *)
      let num = mu * Combin.Binomial.exact v strength in
      let den = Combin.Binomial.exact block_size strength in
      if num mod den = 0 then num / den
      else invalid_arg "Registry: parameters do not admit a design"

let mk ~name ~strength ~v ~block_size ~mu source =
  {
    name;
    strength;
    v;
    block_size;
    mu;
    blocks = block_count_of ~strength ~v ~block_size ~mu;
    source;
  }

let mismatch name = failwith ("Registry: generator mismatch for " ^ name)

(* An entry whose family is built as a boxed design: its source builds
   the design, checks its parameters against the entry's, and streams
   its blocks. *)
let boxed ~name ~strength ~v ~block_size ~mu gen =
  mk ~name ~strength ~v ~block_size ~mu
    (Materialized
       (fun f ->
         let d = gen () in
         if
           d.Block_design.strength <> strength
           || d.Block_design.v <> v
           || d.Block_design.block_size <> block_size
           || d.Block_design.lambda <> mu
         then mismatch name;
         Array.iter f d.Block_design.blocks))

let prime_powers ~max_v =
  List.filter
    (fun q -> Galois.Field.is_prime_power q <> None)
    (List.init (max 0 (max_v - 1)) (fun i -> i + 2))

(* Powers q^d <= max_v with d >= from_d. *)
let powers_upto q ~from_d ~max_v =
  let rec go acc p d =
    if p > max_v then List.rev acc
    else go (if d >= from_d then (d, p) :: acc else acc) (p * q) (d + 1)
  in
  if q < 2 then [] else go [] (let rec pw i = if i = 0 then 1 else q * pw (i - 1) in pw from_d) from_d

(* --- family enumerations, one function per (t, r) shape ------------- *)

let t1_entries ~block_size ~max_v =
  (* Partitions: v any multiple of r. *)
  let out = ref [] in
  let v = ref block_size in
  while !v <= max_v do
    let v' = !v in
    out :=
      boxed ~name:(Printf.sprintf "partition(%d/%d)" v' block_size) ~strength:1
        ~v:v' ~block_size ~mu:1
        (fun () -> Trivial.partition ~v:v' ~r:block_size)
      :: !out;
    v := !v + block_size
  done;
  List.rev !out

let complete_entries ~strength ~max_v =
  (* t = r: all r-subsets; capacity C(v,r).  One entry per v. *)
  let r = strength in
  List.filter_map
    (fun v ->
      if v < r then None
      else
        match Combin.Binomial.exact_opt v r with
        | None -> None
        | Some c ->
            Some
              (boxed ~name:(Printf.sprintf "complete(%d,%d)" v r) ~strength ~v
                 ~block_size:r ~mu:1
                 (fun () -> Trivial.subsets_design ~v ~r ~count:c)))
    (List.init max_v (fun i -> i + 1))

let sts_entries ~max_v =
  List.filter_map
    (fun v ->
      if v >= 7 && Steiner_triple.admissible v then
        Some
          (mk ~name:(Printf.sprintf "STS(%d)" v) ~strength:2 ~v ~block_size:3
             ~mu:1
             (Materialized (Steiner_triple.iter v)))
      else None)
    (List.init max_v (fun i -> i + 1))

let ag_entries ~q ~max_v =
  List.map
    (fun (d, v) ->
      boxed ~name:(Printf.sprintf "AG(%d,%d)" d q) ~strength:2 ~v ~block_size:q
        ~mu:1
        (fun () -> Affine.make ~q ~d))
    (powers_upto q ~from_d:2 ~max_v)

let pg_entries ~q ~max_v =
  (* PG(d, q) has block size q+1. *)
  let rec dims acc d =
    let v = Projective.point_count ~q ~d in
    if v > max_v then List.rev acc else dims ((d, v) :: acc) (d + 1)
  in
  List.map
    (fun (d, v) ->
      boxed ~name:(Printf.sprintf "PG(%d,%d)" d q) ~strength:2 ~v
        ~block_size:(q + 1) ~mu:1
        (fun () -> Projective.make ~q ~d))
    (dims [] 2)

let unital_entry ~q ~max_v =
  let v = Unital.point_count ~q in
  if v <= max_v then
    [
      boxed ~name:(Printf.sprintf "unital(%d)" q) ~strength:2 ~v
        ~block_size:(q + 1) ~mu:1
        (fun () -> Unital.make ~q);
    ]
  else []

(* Hanani's spectrum theorems for 2-(v,r,1), r in {3,4,5}. *)
let pairwise_admissible ~block_size v =
  match block_size with
  | 3 -> v mod 6 = 1 || v mod 6 = 3
  | 4 -> v mod 12 = 1 || v mod 12 = 4
  | 5 -> v mod 20 = 1 || v mod 20 = 5
  | _ -> false

let t2_literature ~block_size ~max_v materialized_vs =
  if block_size < 3 || block_size > 5 then []
  else
    List.filter_map
      (fun v ->
        if
          v > block_size
          && pairwise_admissible ~block_size v
          && not (List.mem v materialized_vs)
        then
          Some
            (mk
               ~name:(Printf.sprintf "2-(%d,%d,1) [Hanani]" v block_size)
               ~strength:2 ~v ~block_size ~mu:1
               (Literature "Hanani 1961/1975; Abel & Greig, Handbook ch. 3"))
        else None)
      (List.init max_v (fun i -> i + 1))

let sqs_entries ~max_v =
  List.filter_map
    (fun v ->
      if v >= 8 && Quadruple.constructible v then
        Some
          (boxed ~name:(Printf.sprintf "SQS(%d)" v) ~strength:3 ~v ~block_size:4
             ~mu:1
             (fun () -> Quadruple.make v))
      else None)
    (List.init max_v (fun i -> i + 1))

let sqs_literature ~max_v materialized_vs =
  List.filter_map
    (fun v ->
      if v >= 8 && Quadruple.admissible v && not (List.mem v materialized_vs)
      then
        Some
          (mk ~name:(Printf.sprintf "SQS(%d) [Hanani]" v) ~strength:3 ~v
             ~block_size:4 ~mu:1
             (Literature "Hanani 1960 (Canad. J. Math. 12)"))
      else None)
    (List.init max_v (fun i -> i + 1))

let spherical_entries ~q ~max_v =
  List.map
    (fun (d, p) ->
      let v = p + 1 in
      boxed ~name:(Printf.sprintf "spherical(%d^%d)" q d) ~strength:3 ~v
        ~block_size:(q + 1) ~mu:1
        (fun () -> Spherical.make ~q ~d))
    (List.filter (fun (_, p) -> p + 1 <= max_v) (powers_upto q ~from_d:2 ~max_v))

let t3_r5_literature ~max_v materialized_vs =
  (* Known small 3-(v,5,1) systems beyond the spherical family; the paper
     uses 26 (Hanani, Hartman & Kramer 1983) for n = 31. *)
  List.filter_map
    (fun v ->
      if v <= max_v && not (List.mem v materialized_vs) then
        Some
          (mk ~name:(Printf.sprintf "3-(%d,5,1) [HHK]" v) ~strength:3 ~v
             ~block_size:5 ~mu:1
             (Literature "Hanani, Hartman & Kramer 1983"))
      else None)
    [ 26; 41; 46 ]

let s45_literature ~max_v materialized_vs =
  (* The known S(4,5,v) list (Colbourn & Mathon, Handbook ch. 5); the
     paper's Fig. 4 uses 23, 71 and 243 from it. *)
  List.filter_map
    (fun v ->
      if v <= max_v && not (List.mem v materialized_vs) then
        Some
          (mk ~name:(Printf.sprintf "S(4,5,%d)" v) ~strength:4 ~v
             ~block_size:5 ~mu:1
             (Literature "Colbourn & Mathon, Handbook ch. 5 (Mills et al.)"))
      else None)
    [ 23; 35; 47; 71; 83; 107; 131; 167; 243 ]

let s45_search ~max_v =
  if max_v >= 11 then
    [
      boxed ~name:"S(4,5,11) [search]" ~strength:4 ~v:11 ~block_size:5 ~mu:1
        (fun () ->
          match
            Packing_search.exact_steiner ~strength:4 ~v:11 ~block_size:5 ()
          with
          | Some d -> d
          | None -> failwith "Registry: S(4,5,11) search failed");
    ]
  else []

(* PGL(2,q)-orbit 3-(q+1,5,mu) designs with mu > 1 (Fig. 6 engine).
   Deterministic per q: fixed-seed search. *)
let mobius_mu_entries ~max_mu ~max_v =
  if max_mu < 2 then []
  else
    List.filter_map
      (fun q ->
        if q + 1 > max_v || q + 1 < 7 then None
        else begin
          let f = Galois.Field.of_order q in
          let rng = Combin.Rng.create (0x5EED + q) in
          let s, h = Mobius_family.search_best f ~rng ~tries:(min 400 (4 * q)) in
          let mu = Mobius_family.mu_of_stab h in
          if mu <= max_mu && mu > 1 then
            Some
              (boxed
                 ~name:(Printf.sprintf "PGL-orbit 3-(%d,5,%d)" (q + 1) mu)
                 ~strength:3 ~v:(q + 1) ~block_size:5 ~mu
                 (fun () -> Mobius_family.design f s))
          else None
        end)
      (prime_powers ~max_v)

let vs_of entries = List.map (fun e -> e.v) entries

(* 2-(v, r, 1) designs developed from searched (v, r, 1) difference
   families, for orders our search is vetted on and no algebraic
   construction already covers. *)
let df_entries ~block_size ~max_v covered_vs =
  if block_size < 3 || block_size > 5 then []
  else
    List.filter_map
      (fun v ->
        if v <= max_v && not (List.mem v covered_vs) then
          Some
            (boxed
               ~name:(Printf.sprintf "2-(%d,%d,1) [DF search]" v block_size)
               ~strength:2 ~v ~block_size ~mu:1
               (fun () ->
                 match Difference_family.make ~v ~r:block_size () with
                 | Some d -> d
                 | None ->
                     failwith
                       (Printf.sprintf
                          "Registry: difference-family search failed for v=%d r=%d"
                          v block_size)))
        else None)
      (List.filter
         (fun v -> Difference_family.searchable ~v ~r:block_size)
         (List.init max_v (fun i -> i + 1)))

let entries ?(max_mu = 1) ?(include_literature = true) ~strength ~block_size
    ~max_v () =
  if strength < 1 || strength > block_size then
    invalid_arg "Registry.entries: need 1 <= strength <= block_size";
  let base =
    if strength = 1 then t1_entries ~block_size ~max_v
    else if strength = block_size then complete_entries ~strength ~max_v
    else
      match (strength, block_size) with
      | 2, r ->
          let materialized =
            (if r = 3 then sts_entries ~max_v else [])
            @ (match Galois.Field.is_prime_power r with
              | Some _ -> ag_entries ~q:r ~max_v
              | None -> [])
            @ (match Galois.Field.is_prime_power (r - 1) with
              | Some _ -> pg_entries ~q:(r - 1) ~max_v @ unital_entry ~q:(r - 1) ~max_v
              | None -> [])
          in
          let materialized =
            materialized @ df_entries ~block_size:r ~max_v (vs_of materialized)
          in
          let lit =
            if include_literature then
              t2_literature ~block_size:r ~max_v (vs_of materialized)
            else []
          in
          materialized @ lit
      | 3, 4 ->
          (* Steiner quadruple systems, plus the spherical (Möbius-plane)
             3-(3^d+1, 4, 1) family over GF(3): 10, 28, 82, 244, ... *)
          let sqs = sqs_entries ~max_v in
          let spherical =
            List.filter
              (fun e -> not (List.mem e.v (vs_of sqs)))
              (spherical_entries ~q:3 ~max_v)
          in
          let materialized = sqs @ spherical in
          let lit =
            if include_literature then sqs_literature ~max_v (vs_of materialized)
            else []
          in
          materialized @ lit
      | 3, 5 ->
          let materialized = spherical_entries ~q:4 ~max_v in
          let lit =
            if include_literature then
              t3_r5_literature ~max_v (vs_of materialized)
            else []
          in
          let mus = mobius_mu_entries ~max_mu ~max_v in
          materialized @ lit @ mus
      | 3, r -> (
          (* General block sizes (e.g. r = 6 erasure-coded stripes): the
             spherical 3-((r-1)^d+1, r, 1) family whenever r-1 is a prime
             power. *)
          match Galois.Field.is_prime_power (r - 1) with
          | Some _ -> spherical_entries ~q:(r - 1) ~max_v
          | None -> [])
      | 4, 5 ->
          let materialized = s45_search ~max_v in
          let lit =
            if include_literature then s45_literature ~max_v (vs_of materialized)
            else []
          in
          materialized @ lit
      | _ -> []
  in
  let filtered = List.filter (fun e -> e.mu <= max_mu && e.v <= max_v) base in
  List.sort (fun a b -> compare (a.v, a.mu) (b.v, b.mu)) filtered

let best ?(max_mu = 1) ?(include_literature = true) ?(materialized_only = false)
    ~strength ~block_size ~max_v () =
  let pool = entries ~max_mu ~include_literature ~strength ~block_size ~max_v () in
  let pool = if materialized_only then List.filter is_materialized pool else pool in
  (* Capacity per unit mu, i.e. blocks/mu, decides; prefer larger v then
     smaller mu on ties. *)
  let better a b =
    let ka = (float_of_int a.blocks /. float_of_int a.mu, a.v, -a.mu) in
    let kb = (float_of_int b.blocks /. float_of_int b.mu, b.v, -b.mu) in
    ka > kb
  in
  List.fold_left
    (fun acc e -> match acc with Some e' when better e' e -> acc | _ -> Some e)
    None pool

let materialize e =
  match e.source with
  | Materialized iter ->
      let blocks = Array.make e.blocks [||] in
      let count = ref 0 in
      iter (fun blk ->
          if !count = e.blocks then mismatch e.name;
          blocks.(!count) <- Array.copy blk;
          incr count);
      if !count <> e.blocks then mismatch e.name;
      Block_design.make ~strength:e.strength ~v:e.v ~block_size:e.block_size
        ~lambda:e.mu blocks
  | Literature cite ->
      invalid_arg
        (Printf.sprintf "Registry.materialize: %s is literature-only (%s)"
           e.name cite)

let paper_nx_table () =
  List.map
    (fun n ->
      let per_r =
        List.map
          (fun r ->
            let row =
              List.map
                (fun x -> (x, best ~strength:(x + 1) ~block_size:r ~max_v:n ()))
                (List.init (r - 1) (fun i -> i + 1))
            in
            (r, row))
          [ 2; 3; 4; 5 ]
      in
      (n, per_r))
    [ 31; 71; 257 ]
