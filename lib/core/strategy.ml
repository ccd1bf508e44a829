type capability =
  | Deterministic
  | Randomized
  | Load_balanced
  | Online
  | Exact_small
  | Domain_capped

let capability_name = function
  | Deterministic -> "deterministic"
  | Randomized -> "randomized"
  | Load_balanced -> "load-balanced"
  | Online -> "online"
  | Exact_small -> "exact-small"
  | Domain_capped -> "domain-capped"

module type S = sig
  val name : string
  val describe : string
  val capabilities : capability list
  val plan : ?rng:Combin.Rng.t -> Instance.t -> Layout.t
  val lower_bound : ?layout:Layout.t -> Instance.t -> int option
  val explain : Instance.t -> string list
end

type report = {
  strategy : string;
  capabilities : capability list;
  params : Params.t;
  lower_bound : int option;
  upper_bound : int;
  notes : string list;
}

let report ?layout (module M : S) inst =
  let p = Instance.params inst in
  {
    strategy = M.name;
    capabilities = M.capabilities;
    params = p;
    lower_bound = M.lower_bound ?layout inst;
    upper_bound =
      Analysis.ub_avail_any ~b:p.Params.b ~r:p.Params.r ~s:p.Params.s
        ~n:p.Params.n ~k:p.Params.k;
    notes = M.explain inst;
  }
