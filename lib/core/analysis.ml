let capacity_per_mu ~x ~nx ~r ~mu =
  let num = mu * Combin.Binomial.exact nx (x + 1) in
  let den = Combin.Binomial.exact r (x + 1) in
  if num mod den <> 0 then
    invalid_arg "Analysis: μ C(nx,x+1)/C(r,x+1) not integral";
  num / den

let lambda_min ~x ~nx ~r ~mu ~b =
  let cap = capacity_per_mu ~x ~nx ~r ~mu in
  let copies = (b + cap - 1) / cap in
  max 1 copies * mu

type lb_report = {
  lb : int;
  lb_clamped : int;
  failed_ub : int;
  vacuous : bool;
}

let lb_avail_si_report ?(choose = Combin.Binomial.exact) ~b ~x ~lambda ~k ~s () =
  let failed_ub = lambda * choose k (x + 1) / choose s (x + 1) in
  let lb = b - failed_ub in
  { lb; lb_clamped = max 0 lb; failed_ub; vacuous = lb <= 0 }

type competitive = { c : float; alpha : float }

let theorem1 ~x ~nx ~r ~s ~k ~mu =
  let cr = Combin.Binomial.exact r (x + 1) in
  let ck = Combin.Binomial.exact k (x + 1) in
  let cn = Combin.Binomial.exact nx (x + 1) in
  let cs = Combin.Binomial.exact s (x + 1) in
  if cr * ck >= cn * cs then None
  else begin
    let ratio = float_of_int (cr * ck) /. float_of_int (cn * cs) in
    let c = 1.0 /. (1.0 -. ratio) in
    let alpha = c *. float_of_int (mu * ck) /. float_of_int cs in
    Some { c; alpha }
  end

let competitive_limit_fraction ~x ~nx ~k =
  let num = float_of_int (Combin.Binomial.falling k (x + 1)) in
  let den = float_of_int (Combin.Binomial.falling nx (x + 1)) in
  1.0 -. (num /. den)

let ub_avail_any ~b ~r ~s ~n ~k =
  if k < s then b
  else begin
    (* Top-k loads sum to at least the ceiling of k/n of all r·b replicas. *)
    let loads = ((k * r * b) + n - 1) / n in
    let m = min r k in
    let avail = (m * b - loads) / (m - s + 1) in
    max 0 (min b avail)
  end
