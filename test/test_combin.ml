(* Unit and property tests for the Combin substrate. *)

let qtest ?(count = 200) name gen prop =
  (* Fixed random state: property tests must be reproducible. *)
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xC0FFEE |])
    (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Binomial *)

let test_binomial_small () =
  Alcotest.(check int) "C(5,2)" 10 (Combin.Binomial.exact 5 2);
  Alcotest.(check int) "C(0,0)" 1 (Combin.Binomial.exact 0 0);
  Alcotest.(check int) "C(7,0)" 1 (Combin.Binomial.exact 7 0);
  Alcotest.(check int) "C(7,7)" 1 (Combin.Binomial.exact 7 7);
  Alcotest.(check int) "C(7,8)" 0 (Combin.Binomial.exact 7 8);
  Alcotest.(check int) "C(7,-1)" 0 (Combin.Binomial.exact 7 (-1));
  Alcotest.(check int) "C(71,5)" 13019909 (Combin.Binomial.exact 71 5);
  Alcotest.(check int) "C(257,3)" 2796160 (Combin.Binomial.exact 257 3)

let test_binomial_pascal =
  qtest "pascal identity"
    QCheck2.Gen.(pair (int_range 1 60) (int_range 1 59))
    (fun (n, k) ->
      let k = min k n in
      Combin.Binomial.exact n k
      = Combin.Binomial.exact (n - 1) (k - 1) + Combin.Binomial.exact (n - 1) k)

let test_binomial_symmetry =
  qtest "symmetry"
    QCheck2.Gen.(pair (int_range 0 60) (int_range 0 60))
    (fun (n, k) ->
      k > n || Combin.Binomial.exact n k = Combin.Binomial.exact n (n - k))

let test_binomial_log_vs_exact =
  qtest "log agrees with exact"
    QCheck2.Gen.(pair (int_range 0 50) (int_range 0 50))
    (fun (n, k) ->
      if k > n then Combin.Binomial.log n k = neg_infinity
      else begin
        let exact = float_of_int (Combin.Binomial.exact n k) in
        abs_float (exp (Combin.Binomial.log n k) -. exact) /. exact < 1e-9
      end)

let test_binomial_overflow () =
  Alcotest.check_raises "C(100,50) overflows" Combin.Binomial.Overflow
    (fun () -> ignore (Combin.Binomial.exact 100 50));
  Alcotest.(check (option int)) "opt" None (Combin.Binomial.exact_opt 100 50)

let test_ratio_exact () =
  Alcotest.(check (option int))
    "capacity of STS(7)" (Some 7)
    (Combin.Binomial.ratio_exact 7 2 3 2);
  Alcotest.(check (option int))
    "non-integral" None
    (Combin.Binomial.ratio_exact 8 2 3 2)

let test_divides () =
  Alcotest.(check bool) "3|12" true (Combin.Binomial.divides 3 12);
  Alcotest.(check bool) "5|12" false (Combin.Binomial.divides 5 12);
  Alcotest.(check bool) "0|12" false (Combin.Binomial.divides 0 12)

let test_falling () =
  Alcotest.(check int) "5_3" 60 (Combin.Binomial.falling 5 3);
  Alcotest.(check int) "n_0" 1 (Combin.Binomial.falling 9 0)

(* ------------------------------------------------------------------ *)
(* Subset *)

let test_subset_count =
  qtest "iter visits C(n,k) subsets"
    QCheck2.Gen.(pair (int_range 0 12) (int_range 0 12))
    (fun (n, k) ->
      let count = ref 0 in
      Combin.Subset.iter ~n ~k (fun _ -> incr count);
      if k > n then !count = 0 || (k = 0 && !count = 1)
      else !count = Combin.Binomial.exact n k)

let test_subset_sorted_distinct =
  qtest "iter yields sorted distinct in-range"
    QCheck2.Gen.(pair (int_range 1 10) (int_range 1 10))
    (fun (n, k) ->
      let k = min k n in
      let ok = ref true in
      Combin.Subset.iter ~n ~k (fun c ->
          if not (Combin.Intset.is_sorted_distinct c) then ok := false;
          Array.iter (fun x -> if x < 0 || x >= n then ok := false) c);
      !ok)

let test_subset_rank_roundtrip =
  qtest "rank/unrank roundtrip"
    QCheck2.Gen.(pair (int_range 1 20) (int_range 1 6))
    (fun (n, k) ->
      let k = min k n in
      let ok = ref true in
      Combin.Subset.iter ~n ~k (fun c ->
          let rank = Combin.Subset.rank ~n c in
          let c' = Combin.Subset.unrank ~k rank in
          if c' <> c then ok := false);
      !ok)

let test_subset_ranks_distinct () =
  (* All ranks of 3-subsets of 8 elements are exactly 0..C(8,3)-1. *)
  let seen = Hashtbl.create 64 in
  Combin.Subset.iter ~n:8 ~k:3 (fun c ->
      Hashtbl.replace seen (Combin.Subset.rank ~n:8 c) ());
  Alcotest.(check int) "distinct ranks" 56 (Hashtbl.length seen);
  for i = 0 to 55 do
    if not (Hashtbl.mem seen i) then Alcotest.fail "rank gap"
  done

let test_sub_iter () =
  let base = [| 3; 7; 11; 20 |] in
  let collected = ref [] in
  Combin.Subset.sub_iter base ~k:2 (fun s -> collected := Array.to_list s :: !collected);
  Alcotest.(check int) "pairs of 4" 6 (List.length !collected);
  Alcotest.(check bool) "contains [3;20]" true (List.mem [ 3; 20 ] !collected)

let test_pairs () =
  let count = ref 0 in
  Combin.Subset.pairs [| 1; 2; 3; 4; 5 |] (fun _ _ -> incr count);
  Alcotest.(check int) "C(5,2)" 10 !count

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Combin.Rng.create 99 and b = Combin.Rng.create 99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Combin.Rng.bits64 a) (Combin.Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Combin.Rng.create 1 in
  let c = Combin.Rng.split a in
  Alcotest.(check bool) "split differs from parent" true
    (Combin.Rng.bits64 a <> Combin.Rng.bits64 c)

let test_rng_int_bounds =
  qtest "int in bounds"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Combin.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Combin.Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_rng_int_covers () =
  (* Over many draws from [0,4), each value appears. *)
  let rng = Combin.Rng.create 7 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Combin.Rng.int rng 4) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_sample_distinct =
  qtest "sample_distinct valid"
    QCheck2.Gen.(triple (int_range 0 1000) (int_range 1 30) (int_range 0 30))
    (fun (seed, n, k) ->
      let k = min k n in
      let rng = Combin.Rng.create seed in
      let s = Combin.Rng.sample_distinct rng ~n ~k in
      Array.length s = k
      && Combin.Intset.is_sorted_distinct s
      && Array.for_all (fun x -> x >= 0 && x < n) s)

let test_sample_distinct_uniformish () =
  (* Every element of [0,6) should be sampled eventually in 2-subsets. *)
  let rng = Combin.Rng.create 3 in
  let seen = Array.make 6 false in
  for _ = 1 to 300 do
    Array.iter (fun x -> seen.(x) <- true) (Combin.Rng.sample_distinct rng ~n:6 ~k:2)
  done;
  Alcotest.(check bool) "coverage" true (Array.for_all Fun.id seen)

let test_shuffle_permutation =
  qtest "shuffle is a permutation"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 50))
    (fun (seed, len) ->
      let rng = Combin.Rng.create seed in
      let a = Array.init len (fun i -> i) in
      Combin.Rng.shuffle rng a;
      let sorted = Array.copy a in
      Array.sort compare sorted;
      sorted = Array.init len (fun i -> i))

let test_choose_weighted () =
  let rng = Combin.Rng.create 11 in
  (* Zero-weight entries are never chosen. *)
  for _ = 1 to 100 do
    let i = Combin.Rng.choose_weighted rng [| 0.0; 1.0; 0.0 |] in
    Alcotest.(check int) "only index 1" 1 i
  done

(* ------------------------------------------------------------------ *)
(* Logspace *)

let test_log_add () =
  let la = log 3.0 and lb = log 4.0 in
  Alcotest.(check (float 1e-9)) "3+4" (log 7.0) (Combin.Logspace.log_add la lb);
  Alcotest.(check (float 1e-9)) "neg_inf id" la
    (Combin.Logspace.log_add la neg_infinity)

let test_log_sum () =
  let xs = [| log 1.0; log 2.0; log 3.0 |] in
  Alcotest.(check (float 1e-9)) "1+2+3" (log 6.0) (Combin.Logspace.log_sum xs);
  Alcotest.(check (float 1e-9)) "empty" neg_infinity (Combin.Logspace.log_sum [||])

let direct_binomial_sf ~n ~p f =
  let total = ref 0.0 in
  for j = max 0 f to n do
    total :=
      !total
      +. (float_of_int (Combin.Binomial.exact n j)
          *. (p ** float_of_int j)
          *. ((1.0 -. p) ** float_of_int (n - j)))
  done;
  !total

let test_binomial_sf_vs_direct =
  qtest ~count:100 "sf matches direct sum"
    QCheck2.Gen.(triple (int_range 1 30) (float_bound_exclusive 1.0) (int_range 0 30))
    (fun (n, p, f) ->
      let f = min f n in
      let direct = direct_binomial_sf ~n ~p f in
      let ours = exp (Combin.Logspace.log_binomial_sf ~n ~p f) in
      abs_float (ours -. direct) < 1e-9 *. (1.0 +. direct))

let test_binomial_sf_table =
  qtest ~count:50 "table matches pointwise sf"
    QCheck2.Gen.(pair (int_range 1 40) (float_bound_exclusive 1.0))
    (fun (n, p) ->
      let table = Combin.Logspace.log_binomial_sf_table ~n ~p in
      let ok = ref true in
      for f = 0 to n do
        let pointwise = Combin.Logspace.log_binomial_sf ~n ~p f in
        if
          not
            (pointwise = neg_infinity && table.(f) = neg_infinity
            || abs_float (table.(f) -. pointwise) < 1e-9)
        then ok := false
      done;
      !ok && table.(n + 1) = neg_infinity)

let test_binomial_pmf_degenerate () =
  Alcotest.(check (float 0.0)) "p=0, j=0" 0.0
    (Combin.Logspace.log_binomial_pmf ~n:5 ~p:0.0 0);
  Alcotest.(check (float 0.0)) "p=0, j=1" neg_infinity
    (Combin.Logspace.log_binomial_pmf ~n:5 ~p:0.0 1);
  Alcotest.(check (float 0.0)) "p=1, j=n" 0.0
    (Combin.Logspace.log_binomial_pmf ~n:5 ~p:1.0 5)

(* ------------------------------------------------------------------ *)
(* Intset *)

let sorted_gen = QCheck2.Gen.(list_size (int_range 0 20) (int_range 0 30))

let test_intset_ops =
  qtest "ops agree with list model"
    QCheck2.Gen.(pair sorted_gen sorted_gen)
    (fun (la, lb) ->
      let a = Combin.Intset.of_array (Array.of_list la) in
      let b = Combin.Intset.of_array (Array.of_list lb) in
      let module S = Set.Make (Int) in
      let sa = S.of_list la and sb = S.of_list lb in
      let arr s = Array.of_list (S.elements s) in
      Combin.Intset.inter a b = arr (S.inter sa sb)
      && Combin.Intset.union a b = arr (S.union sa sb)
      && Combin.Intset.diff a b = arr (S.diff sa sb)
      && Combin.Intset.inter_size a b = S.cardinal (S.inter sa sb)
      && Combin.Intset.subset a b = S.subset sa sb)

let test_intset_mem =
  qtest "mem agrees with linear search"
    QCheck2.Gen.(pair sorted_gen (int_range 0 30))
    (fun (l, x) ->
      let a = Combin.Intset.of_array (Array.of_list l) in
      Combin.Intset.mem a x = Array.exists (fun y -> y = x) a)

let test_intset_of_array () =
  Alcotest.(check bool) "dedup + sort" true
    (Combin.Intset.equal
       (Combin.Intset.of_array [| 5; 1; 5; 3; 1 |])
       [| 1; 3; 5 |])

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_sorts =
  qtest "pops in nondecreasing key order"
    QCheck2.Gen.(list_size (int_range 0 200) (float_bound_inclusive 100.0))
    (fun keys ->
      let h = Combin.Heap.create () in
      List.iteri (fun i k -> Combin.Heap.push h k i) keys;
      let rec drain prev acc =
        match Combin.Heap.pop h with
        | None -> List.rev acc
        | Some (k, _) ->
            if k < prev then raise Exit;
            drain k (k :: acc)
      in
      match drain neg_infinity [] with
      | drained -> List.length drained = List.length keys
      | exception Exit -> false)

let test_heap_interleaved () =
  let h = Combin.Heap.create () in
  Combin.Heap.push h 5.0 "e";
  Combin.Heap.push h 1.0 "a";
  Alcotest.(check (option (pair (float 0.0) string))) "peek min" (Some (1.0, "a"))
    (Combin.Heap.peek h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop min" (Some (1.0, "a"))
    (Combin.Heap.pop h);
  Combin.Heap.push h 3.0 "c";
  Combin.Heap.push h 0.5 "z";
  Alcotest.(check (option (pair (float 0.0) string))) "new min" (Some (0.5, "z"))
    (Combin.Heap.pop h);
  Alcotest.(check int) "size" 2 (Combin.Heap.size h);
  Alcotest.(check bool) "not empty" false (Combin.Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Csr *)

let test_csr_of_arrays () =
  let rows = [| [| 3; 1; 3 |]; [||]; [| 0 |] |] in
  let c = Combin.Csr.of_arrays ~cols:4 rows in
  Alcotest.(check int) "rows" 3 (Combin.Csr.rows c);
  Alcotest.(check int) "cols" 4 (Combin.Csr.cols c);
  Alcotest.(check int) "entries_total" 4 (Combin.Csr.entries_total c);
  Alcotest.(check int) "max_degree" 3 (Combin.Csr.max_degree c);
  Alcotest.(check int) "degree 1" 0 (Combin.Csr.degree c 1);
  (* Row order and within-row entry order (duplicates included) are
     preserved verbatim. *)
  Array.iteri
    (fun u expect ->
      Alcotest.(check (array int))
        (Printf.sprintf "row %d" u)
        expect (Combin.Csr.row c u))
    rows;
  Alcotest.check_raises "entry out of range"
    (Invalid_argument "Csr.of_arrays: entry out of range") (fun () ->
      ignore (Combin.Csr.of_arrays ~cols:2 [| [| 2 |] |]))

let csr_sets_gen =
  (* [rows] units and a pile of member sets over them, duplicates
     allowed (a set may hold the same unit twice — multiplicity). *)
  QCheck2.Gen.(
    let* rows = int_range 1 20 in
    let* sets =
      list_size (int_range 0 40)
        (list_size (int_range 0 6) (int_range 0 (rows - 1)))
    in
    return (rows, Array.of_list (List.map Array.of_list sets)))

let test_csr_invert_transposes =
  qtest "invert is the transposed incidence"
    csr_sets_gen
    (fun (rows, sets) ->
      let c = Combin.Csr.invert ~rows sets in
      let expect u =
        (* Every i with u ∈ sets.(i), ascending, once per occurrence. *)
        let acc = ref [] in
        Array.iteri
          (fun i set ->
            Array.iter (fun m -> if m = u then acc := i :: !acc) set)
          sets;
        List.rev !acc
      in
      Combin.Csr.rows c = rows
      && Combin.Csr.cols c = Array.length sets
      && (let ok = ref true in
          for u = 0 to rows - 1 do
            if Array.to_list (Combin.Csr.row c u) <> expect u then ok := false
          done;
          !ok))

let test_csr_group =
  qtest "group concatenates member rows in order"
    QCheck2.Gen.(
      let* rows = int_range 1 12 in
      let* boxed =
        array_size (return rows)
          (array_size (int_range 0 5) (int_range 0 9))
      in
      let* members =
        array_size (int_range 1 4)
          (array_size (int_range 0 6) (int_range 0 (rows - 1)))
      in
      return (boxed, members))
    (fun (boxed, members) ->
      let c = Combin.Csr.of_arrays ~cols:10 boxed in
      let g = Combin.Csr.group c members in
      let ok = ref (Combin.Csr.rows g = Array.length members
                    && Combin.Csr.cols g = 10) in
      Array.iteri
        (fun gi ms ->
          let expect =
            Array.concat (Array.to_list (Array.map (fun u -> boxed.(u)) ms))
          in
          if Combin.Csr.row g gi <> expect then ok := false)
        members;
      !ok)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let bitset_model_gen =
  (* A capacity plus a sequence of add/remove ops to interleave. *)
  QCheck2.Gen.(
    let* cap = int_range 1 200 in
    let* ops = list_size (int_range 0 120) (pair bool (int_range 0 (cap - 1))) in
    return (cap, ops))

let test_bitset_vs_model =
  qtest "add/remove/mem/count/iter match a set model" bitset_model_gen
    (fun (cap, ops) ->
      let t = Combin.Bitset.create cap in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, x) ->
          if add then begin
            Combin.Bitset.add t x;
            Hashtbl.replace model x ()
          end
          else begin
            Combin.Bitset.remove t x;
            Hashtbl.remove model x
          end)
        ops;
      let expect =
        Hashtbl.fold (fun x () acc -> x :: acc) model [] |> Array.of_list
        |> Combin.Intset.of_array
      in
      Combin.Bitset.count t = Array.length expect
      && Combin.Bitset.to_array t = expect
      && Array.for_all (fun x -> Combin.Bitset.mem t x) expect
      && Combin.Bitset.is_empty t = (Array.length expect = 0))

let test_bitset_algebra =
  qtest "inter/union/diff/inter_count match Intset"
    QCheck2.Gen.(
      let* cap = int_range 1 150 in
      let* xs = list_size (int_range 0 80) (int_range 0 (cap - 1)) in
      let* ys = list_size (int_range 0 80) (int_range 0 (cap - 1)) in
      return (cap, Array.of_list xs, Array.of_list ys))
    (fun (cap, xs, ys) ->
      let sa = Combin.Intset.of_array xs and sb = Combin.Intset.of_array ys in
      let a = Combin.Bitset.of_array ~capacity:cap xs in
      let b = Combin.Bitset.of_array ~capacity:cap ys in
      Combin.Bitset.to_array (Combin.Bitset.inter a b) = Combin.Intset.inter sa sb
      && Combin.Bitset.to_array (Combin.Bitset.union a b) = Combin.Intset.union sa sb
      && Combin.Bitset.to_array (Combin.Bitset.diff a b) = Combin.Intset.diff sa sb
      && Combin.Bitset.inter_count a b = Combin.Intset.inter_size sa sb
      && Combin.Bitset.equal a (Combin.Bitset.copy a))

let test_bitset_edges () =
  let t = Combin.Bitset.create 64 in
  (* Word boundaries: 62/63 straddle the first 63-bit word. *)
  List.iter (Combin.Bitset.add t) [ 0; 62; 63 ];
  Alcotest.(check int) "count" 3 (Combin.Bitset.count t);
  Alcotest.(check (array int)) "boundary bits" [| 0; 62; 63 |]
    (Combin.Bitset.to_array t);
  Combin.Bitset.remove t 62;
  Alcotest.(check bool) "62 gone" false (Combin.Bitset.mem t 62);
  Alcotest.(check bool) "63 kept" true (Combin.Bitset.mem t 63);
  Combin.Bitset.clear t;
  Alcotest.(check bool) "cleared" true (Combin.Bitset.is_empty t);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset.add: 64 out of [0, 64)") (fun () ->
      Combin.Bitset.add t 64);
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset.inter_count: capacities 64 <> 63") (fun () ->
      ignore (Combin.Bitset.inter_count t (Combin.Bitset.create 63)))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Combin.Stats.mean a);
  Alcotest.(check (float 1e-9)) "variance" (5.0 /. 3.0) (Combin.Stats.variance a);
  let lo, hi = Combin.Stats.min_max a in
  Alcotest.(check (float 0.0)) "min" 1.0 lo;
  Alcotest.(check (float 0.0)) "max" 4.0 hi;
  Alcotest.(check (float 1e-9)) "median" 2.5 (Combin.Stats.percentile a 0.5)

let test_stats_cdf () =
  let pts = Combin.Stats.cdf_points [| 0.2; 0.1; 0.2; 0.4 |] in
  Alcotest.(check int) "distinct values" 3 (List.length pts);
  let _, top = List.nth pts 2 in
  Alcotest.(check (float 1e-9)) "last fraction is 1" 1.0 top;
  let v, frac = List.nth pts 1 in
  Alcotest.(check (float 1e-9)) "0.2 value" 0.2 v;
  Alcotest.(check (float 1e-9)) "0.2 cumfrac" 0.75 frac

let test_stats_cdf_monotone =
  qtest "cdf monotone in value and fraction"
    QCheck2.Gen.(list_size (int_range 1 40) (float_bound_inclusive 1.0))
    (fun l ->
      let pts = Combin.Stats.cdf_points (Array.of_list l) in
      let rec check = function
        | (v1, f1) :: ((v2, f2) :: _ as rest) ->
            v1 < v2 && f1 < f2 && check rest
        | _ -> true
      in
      check pts)

let () =
  Alcotest.run "combin"
    [
      ( "binomial",
        [
          Alcotest.test_case "small values" `Quick test_binomial_small;
          test_binomial_pascal;
          test_binomial_symmetry;
          test_binomial_log_vs_exact;
          Alcotest.test_case "overflow" `Quick test_binomial_overflow;
          Alcotest.test_case "ratio_exact" `Quick test_ratio_exact;
          Alcotest.test_case "divides" `Quick test_divides;
          Alcotest.test_case "falling" `Quick test_falling;
        ] );
      ( "subset",
        [
          test_subset_count;
          test_subset_sorted_distinct;
          test_subset_rank_roundtrip;
          Alcotest.test_case "ranks bijective" `Quick test_subset_ranks_distinct;
          Alcotest.test_case "sub_iter" `Quick test_sub_iter;
          Alcotest.test_case "pairs" `Quick test_pairs;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          test_rng_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers;
          test_sample_distinct;
          Alcotest.test_case "sample coverage" `Quick test_sample_distinct_uniformish;
          test_shuffle_permutation;
          Alcotest.test_case "choose_weighted" `Quick test_choose_weighted;
        ] );
      ( "logspace",
        [
          Alcotest.test_case "log_add" `Quick test_log_add;
          Alcotest.test_case "log_sum" `Quick test_log_sum;
          test_binomial_sf_vs_direct;
          test_binomial_sf_table;
          Alcotest.test_case "pmf degenerate" `Quick test_binomial_pmf_degenerate;
        ] );
      ( "intset",
        [
          test_intset_ops;
          test_intset_mem;
          Alcotest.test_case "of_array" `Quick test_intset_of_array;
        ] );
      ( "heap",
        [
          test_heap_sorts;
          Alcotest.test_case "interleaved ops" `Quick test_heap_interleaved;
        ] );
      ( "csr",
        [
          Alcotest.test_case "of_arrays" `Quick test_csr_of_arrays;
          test_csr_invert_transposes;
          test_csr_group;
        ] );
      ( "bitset",
        [
          test_bitset_vs_model;
          test_bitset_algebra;
          Alcotest.test_case "edges" `Quick test_bitset_edges;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "cdf points" `Quick test_stats_cdf;
          test_stats_cdf_monotone;
        ] );
    ]
