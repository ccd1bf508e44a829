module Event = Dsim.Event
module Churn = Dsim.Churn

exception Violation of string * string

let fail name fmt =
  Printf.ksprintf (fun message -> raise (Violation (name, message))) fmt

type cadence = Step | Pulse

type ctx = {
  engine : Churn.t;
  step : Churn.step option;
  pre_load : int;
  applied : Event.t list;
  rescore : Churn.rescore Lazy.t;
}

type t = {
  name : string;
  describe : string;
  cadence : cadence;
  check : ctx -> unit;
}

(* ------------------------------------------------------------------ *)
(* Built-ins. *)

let oracle =
  let name = "engine/oracle" in
  {
    name;
    describe =
      "incremental engine state is bit-identical to from-scratch \
       recomputation (Churn.check)";
    cadence = Step;
    check =
      (fun ctx ->
        try Churn.check ctx.engine
        with Failure msg -> fail name "%s" msg);
  }

let lower_bound =
  let name = "availability/lower-bound" in
  {
    name;
    describe =
      "availability never falls below the live Lemma-3 guarantee (for the \
       current set of f down nodes at k' = max(k, f), and for the greedy \
       worst case always)";
    cadence = Step;
    check =
      (fun ctx ->
        let eng = ctx.engine in
        let lb = Churn.lower_bound eng in
        let failed = Array.length (Churn.failed_nodes eng) in
        let avail = Churn.available eng in
        if failed <= Churn.k eng then begin
          if avail < lb then
            fail name
              "available %d < lower bound %d with only %d ≤ k = %d nodes down"
              avail lb failed (Churn.k eng)
        end
        else begin
          (* Lemma 3 holds at any k': check the current set at k' = f. *)
          let lb_f = Churn.lower_bound ~k:failed eng in
          if avail < lb_f then
            fail name "available %d < lower bound %d at k' = %d nodes down"
              avail lb_f failed
        end;
        let rs = Lazy.force ctx.rescore in
        if rs.Churn.worst_available < lb then
          fail name "worst-case available %d < lower bound %d"
            rs.Churn.worst_available lb);
  }

let movement =
  let name = "movement/budget" in
  {
    name;
    describe =
      "bounded data movement: a create ships exactly r replicas, a leave \
       at most r·load(leaver), every other event nothing";
    cadence = Step;
    check =
      (fun ctx ->
        match ctx.step with
        | None -> ()
        | Some st ->
            let r = Churn.r ctx.engine in
            let moved = st.Churn.moved in
            (match st.Churn.event with
            | Event.Object_create ->
                if moved <> r then
                  fail name "create moved %d replicas, expected exactly r = %d"
                    moved r
            | Event.Node_leave nd ->
                if moved > r * ctx.pre_load then
                  fail name
                    "leave of node %d moved %d replicas > budget r·load = \
                     %d·%d"
                    nd moved r ctx.pre_load
            | _ ->
                if moved <> 0 then
                  fail name "%s moved %d replicas, expected none"
                    (Event.describe st.Churn.event)
                    moved));
  }

let in_service =
  let name = "placement/in-service" in
  {
    name;
    describe = "no live replica sits on a node that permanently left";
    cadence = Pulse;
    check =
      (fun ctx ->
        let eng = ctx.engine in
        let layout = Churn.layout eng in
        Array.iteri
          (fun obj rs ->
            Array.iter
              (fun nd ->
                if not (Churn.node_in_service eng nd) then
                  fail name "object %d holds a replica on departed node %d"
                    obj nd)
              rs)
          layout.Placement.Layout.replicas);
  }

let replay =
  let name = "engine/replay" in
  {
    name;
    describe =
      "a fresh engine replaying the applied history (injection disarmed) \
       reaches the same state and layout";
    cadence = Pulse;
    check =
      (fun ctx ->
        let eng = ctx.engine in
        let fresh =
          Churn.create ~topology:(Churn.topology eng) ~n:(Churn.n eng)
            ~r:(Churn.r eng) ~s:(Churn.s eng) ~k:(Churn.k eng) ()
        in
        Dsim.Inject.without (fun () ->
            List.iter
              (fun ev ->
                match Churn.apply fresh ev with
                | _ -> ()
                | exception Invalid_argument msg ->
                    fail name "replay rejected applied event %S: %s"
                      (Event.to_line ev) msg)
              (List.rev ctx.applied));
        let pair what a b =
          if a <> b then fail name "%s diverges on replay: %d <> %d" what a b
        in
        pair "live objects" (Churn.live eng) (Churn.live fresh);
        pair "available" (Churn.available eng) (Churn.available fresh);
        pair "moved replicas"
          (Churn.moved_replicas eng)
          (Churn.moved_replicas fresh);
        pair "lower bound" (Churn.lower_bound eng) (Churn.lower_bound fresh);
        if Churn.failed_nodes eng <> Churn.failed_nodes fresh then
          fail name "failed-node set diverges on replay";
        let reps e =
          (Churn.layout e).Placement.Layout.replicas
        in
        if reps eng <> reps fresh then
          fail name "layout diverges on replay");
  }

let builtins = [ oracle; lower_bound; movement; in_service; replay ]

(* ------------------------------------------------------------------ *)
(* Per-strategy promises. *)

(* A Domain_capped plan keeps at most [cap] replicas of an object in one
   domain, so failing j = ⌊(s−1)/cap⌋ whole domains kills nothing. *)
let check_domain_cap name layout ~s tree ~level (d : Placement.Spread.domains) =
  let worst = Placement.Spread.max_per_domain layout d in
  if worst > d.cap then
    fail name "an object has %d replicas in one %s, above the cap %d" worst
      d.level d.cap;
  let j = (s - 1) / d.cap in
  if j >= 1 && j < Topology.Tree.domain_count tree ~level then begin
    let atk = Topology.Adversary.exact layout ~s tree ~level ~j in
    if atk.Topology.Adversary.failed_objects > 0 then
      fail name
        "failing %d %s(s) kills %d objects; cap %d with s = %d promises none"
        j d.level atk.Topology.Adversary.failed_objects d.cap s
  end

let of_strategy (module S : Placement.Strategy.S) =
  let name = "strategy/" ^ S.name in
  let capped = List.mem Placement.Strategy.Domain_capped S.capabilities in
  {
    name;
    describe =
      Printf.sprintf
        "%s's plan at the live population honours its own load cap, domain \
         cap and lower bound under greedy attack"
        S.name;
    cadence = Pulse;
    check =
      (fun ctx ->
        let eng = ctx.engine in
        let b = Churn.live eng in
        if b > 0 then
          let params : Placement.Params.t =
            {
              b;
              r = Churn.r eng;
              s = Churn.s eng;
              n = Churn.n eng;
              k = Churn.k eng;
            }
          in
          match Placement.Params.validate params with
          | Error _ -> ()
          | Ok p -> (
              (* The engine's own fault domains, one level above the
                 nodes, at cap 1. *)
              let tree = Churn.topology eng in
              let level = Topology.Tree.default_level tree in
              let domains = Topology.Spec.domains tree ~level ~cap:1 in
              let inst = Placement.Instance.of_params ~domains p in
              (* A strategy that cannot plan this cell (search budget,
                 too few domains for r) is skipped, not failed — the
                 invariant polices promises, not applicability. *)
              match S.plan inst with
              | exception _ -> ()
              | layout ->
                  if
                    List.mem Placement.Strategy.Load_balanced S.capabilities
                    && not
                         (Placement.Layout.is_load_balanced layout
                            ~cap:(Placement.Params.load_cap p))
                  then
                    fail name
                      "planned layout breaks the ⌈r·b/n⌉ = %d load cap at \
                       b = %d"
                      (Placement.Params.load_cap p)
                      b;
                  if capped then
                    check_domain_cap name layout ~s:params.s tree ~level
                      domains;
                  (match S.lower_bound ~layout inst with
                  | None -> ()
                  | Some lb ->
                      let atk =
                        Placement.Adversary.greedy layout ~s:params.s
                          ~k:params.k
                      in
                      let avail =
                        Placement.Adversary.avail layout ~s:params.s atk
                      in
                      if avail < lb then
                        fail name
                          "greedy %d-attack leaves %d of %d objects, below \
                           the strategy's own guarantee %d"
                          params.k avail b lb)));
  }

(* ------------------------------------------------------------------ *)
(* Canaries: deliberately broken, for shrinker drills. *)

let canaries =
  [
    (let name = "canary/full-availability" in
     {
       name;
       describe =
         "deliberately broken: asserts no live object is ever unavailable \
          (any create + s failures refutes it) — shrinker drill fuel";
       cadence = Step;
       check =
         (fun ctx ->
           let eng = ctx.engine in
           let live = Churn.live eng and avail = Churn.available eng in
           if avail < live then
             fail name "available %d < live %d (as designed)" avail live);
     });
  ]

let find_canary name = List.find_opt (fun c -> c.name = name) canaries
let canary_names = List.map (fun c -> c.name) canaries
