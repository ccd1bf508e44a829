(* Timing and order statistics for the profile benchmark.

   Percentiles use the nearest-rank rule on integer percents, so the
   rank is exact integer arithmetic.  A tail percentile is reported only
   when at least [min_beyond] samples lie above its rank; otherwise it
   is [None] and callers print the sample count instead of a number
   backed by a handful of observations.  [median] and [percentile] take
   samples already [sorted]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let min_beyond = 10

(* 0-based nearest rank of the [p]-th percentile in [n] sorted samples. *)
let rank ~n p = max 0 (((p * n) + 99) / 100 - 1)

let beyond ~n p = n - 1 - rank ~n p

let sorted (a : int array) =
  let c = Array.copy a in
  Array.sort Int.compare c;
  c

let median s = if Array.length s = 0 then None else Some s.(rank ~n:(Array.length s) 50)

let percentile s p =
  let n = Array.length s in
  if n = 0 || beyond ~n p < min_beyond then None else Some s.(rank ~n p)

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(rank ~n:(Array.length a) 50)
