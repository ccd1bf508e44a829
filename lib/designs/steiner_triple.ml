let admissible v = v = 1 || (v >= 3 && (v mod 6 = 1 || v mod 6 = 3))

let largest_admissible v =
  let rec go v' = if v' < 3 then None else if admissible v' then Some v' else go (v' - 1) in
  go v

(* Both constructions hand their triples out in the design's order: the
   reverse of the order in which the loops below, run forwards, generate
   them.  Block order decides routing (the min-index hands out the
   lowest-index block), so the loops run backwards and every caller,
   boxed or streamed, sees that one order.  Each triple is sorted into
   one scratch array, so a pass allocates nothing per block. *)

let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

let emit f scratch x y z =
  let lo = imin x (imin y z) and hi = imax x (imax y z) in
  scratch.(0) <- lo;
  scratch.(1) <- x + y + z - lo - hi;
  scratch.(2) <- hi;
  f scratch

(* Bose construction, v = 6t + 3.  Points are (i, j) with i in Z_m
   (m = 2t + 1, odd) and j in {0,1,2}, encoded as 3i + j.  Forward, the
   m triples {(i,0),(i,1),(i,2)} come first, then for i < j and each
   level the triple {(i,l),(j,l),(i∘j,l+1)}. *)
let bose v f =
  let m = v / 3 in
  let enc i j = (3 * i) + j in
  let scratch = Array.make 3 0 in
  (* (t+1) is the "half" operator: 2 * (t+1) = 1 (mod m). *)
  let half = (m + 1) / 2 in
  for i = m - 1 downto 0 do
    for j = m - 1 downto i + 1 do
      let h = (i + j) * half mod m in
      for level = 2 downto 0 do
        emit f scratch (enc i level) (enc j level) (enc h ((level + 1) mod 3))
      done
    done
  done;
  for i = m - 1 downto 0 do
    emit f scratch (enc i 0) (enc i 1) (enc i 2)
  done

(* Skolem construction, v = 6t + 1.  Points are infinity (code 0) and
   (i, j) with i in Z_{2t}, j in {0,1,2}, encoded as 1 + 3i + j.
   The half-idempotent commutative quasigroup on Z_{2t} is
   i*j = alpha(i + j mod 2t) where alpha(2m) = m, alpha(2m+1) = m + t.
   Forward: the triples across the three levels for the idempotent
   half, then the triples through infinity for the non-idempotent half,
   then the mixed triples driven by the quasigroup. *)
let skolem v f =
  let t = v / 6 in
  let n2 = 2 * t in
  let inf = 0 in
  let enc i j = 1 + (3 * i) + j in
  let alpha x = if x mod 2 = 0 then x / 2 else (x / 2) + t in
  let star i j = alpha ((i + j) mod n2) in
  let scratch = Array.make 3 0 in
  for i = n2 - 1 downto 0 do
    for j = n2 - 1 downto i + 1 do
      for level = 2 downto 0 do
        emit f scratch (enc i level) (enc j level)
          (enc (star i j) ((level + 1) mod 3))
      done
    done
  done;
  for i = n2 - 1 downto t do
    for level = 2 downto 0 do
      emit f scratch inf (enc i level) (enc (i - t) ((level + 1) mod 3))
    done
  done;
  for i = t - 1 downto 0 do
    emit f scratch (enc i 0) (enc i 1) (enc i 2)
  done

let check v fn =
  if not (admissible v) || v < 3 then
    invalid_arg
      (Printf.sprintf "Steiner_triple.%s: v must be >= 3 and 1 or 3 mod 6" fn)

let iter v f =
  check v "iter";
  if v mod 6 = 3 then bose v f else skolem v f

let make v =
  check v "make";
  let blocks = Array.make (v * (v - 1) / 6) [||] in
  let i = ref 0 in
  iter v (fun blk ->
      blocks.(!i) <- Array.copy blk;
      incr i);
  Block_design.make ~strength:2 ~v ~block_size:3 ~lambda:1 blocks
