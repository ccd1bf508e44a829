(** Pluggable placement strategies over a shared {!Instance}.

    Every placement family in the repo — Simple, Combo, Random, Copyset,
    Adaptive, Optimal and the two spread families — implements the one
    module type {!S}; {!Strategies.all} lists them, so every consumer
    layer (CLI [--strategy] dispatch, DST invariants, tests) reaches
    them without hand-wired parameter plumbing per family. *)

type capability =
  | Deterministic  (** [plan] ignores its [rng] *)
  | Randomized  (** [plan] draws from [rng] (default seed 42) *)
  | Load_balanced
      (** the planned layout provably respects the ⌈r·b/n⌉ load cap *)
  | Online  (** supports incremental object arrival/departure *)
  | Exact_small
      (** exhaustive search; [plan] raises on instances over budget *)
  | Domain_capped
      (** the planned layout puts at most [cap] replicas of an object in
          any one domain of the instance's {!Instance.domains} *)

val capability_name : capability -> string

module type S = sig
  val name : string
  (** Lookup key, lowercase (e.g. ["combo"]). *)

  val describe : string
  (** One-line human description for listings. *)

  val capabilities : capability list

  val plan : ?rng:Combin.Rng.t -> Instance.t -> Layout.t
  (** Produce a placement for the instance.  Strategies with
      {!Randomized} default [rng] to [Combin.Rng.create 42]; strategies
      with {!Exact_small} may raise (e.g. {!Optimal.Too_large}) when the
      instance exceeds their search budget. *)

  val lower_bound : ?layout:Layout.t -> Instance.t -> int option
  (** Worst-case availability guarantee (Lemmas 2–3) for the planned
      layout, or [None] when the family offers none.  For strategies
      whose bound depends on the realized layout (Copyset), pass the
      layout returned by [plan]; without it the bound refers to a plan
      with the default rng. *)

  val explain : Instance.t -> string list
  (** Plan summary lines (design selection, λ per level, ...) for the
      CLI's [plan] subcommand; may be empty. *)
end

type report = {
  strategy : string;  (** the strategy's name *)
  capabilities : capability list;
  params : Params.t;  (** the analyzed cell *)
  lower_bound : int option;  (** the family's worst-case guarantee *)
  upper_bound : int;  (** {!Analysis.ub_avail_any}: valid for any π *)
  notes : string list;  (** the strategy's [explain] lines *)
}
(** One strategy's structured answer for one instance: what every
    consumer (CLI JSON envelope, experiment tables, tests) reads instead
    of re-assembling positional pieces per family. *)

val report : ?layout:Layout.t -> (module S) -> Instance.t -> report
(** Assemble a {!report}; [layout] is forwarded to [lower_bound] for
    families whose bound depends on the realized layout. *)
