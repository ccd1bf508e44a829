(* The benchmark's workloads: seeded request scripts for the three serve
   workloads and seeded inputs for the offline attack.  Every script is
   a pure function of its seed and sizes, valid by construction (each
   request names a live object or a node in the right state), and
   spelled with the program's own codecs, so the program only ever sees
   the generated lines. *)

type t = Ingest | Outage | Worst_query | Attack

let all = [ Ingest; Outage; Worst_query; Attack ]

let name = function
  | Ingest -> "ingest"
  | Outage -> "outage"
  | Worst_query -> "worst_query"
  | Attack -> "attack"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Engine shape of the serve workloads. *)
let n = 1000
let r = 3
let s = 2
let k = 8
let racks = 20

(* Sizes.  [count] is events (ingest, worst_query), requests (outage)
   or rounds (attack) and scales with the run length; [population] is
   the object count built in set-up and does not, so per-request costs
   stay comparable across run lengths. *)
type spec = { population : int; count : int }

let spec ~seconds w =
  let scaled base = max 1 (base * seconds / 10) in
  match w with
  | Ingest -> { population = 0; count = scaled 100_000 }
  | Outage -> { population = 30_000; count = scaled 2_000_000 }
  | Worst_query -> { population = 30_000; count = scaled 25_000 }
  | Attack -> { population = 0; count = scaled 3 }

(* ------------------------------------------------------------------ *)
(* Script generation. *)

(* A set of ints with O(1) insert, delete and uniform draw. *)
module Bag = struct
  type t = { mutable items : int array; mutable size : int; pos : (int, int) Hashtbl.t }

  let create () = { items = Array.make 16 0; size = 0; pos = Hashtbl.create 16 }
  let size b = b.size
  let mem b x = Hashtbl.mem b.pos x

  let add b x =
    if not (mem b x) then begin
      if b.size = Array.length b.items then begin
        let grown = Array.make (2 * b.size) 0 in
        Array.blit b.items 0 grown 0 b.size;
        b.items <- grown
      end;
      b.items.(b.size) <- x;
      Hashtbl.replace b.pos x b.size;
      b.size <- b.size + 1
    end

  let remove b x =
    let i = Hashtbl.find b.pos x in
    let last = b.items.(b.size - 1) in
    b.items.(i) <- last;
    Hashtbl.replace b.pos last i;
    Hashtbl.remove b.pos x;
    b.size <- b.size - 1

  let draw b rng = b.items.(Combin.Rng.int rng b.size)
end

let emitter size =
  let buf = Buffer.create size in
  let line l =
    Buffer.add_string buf l;
    Buffer.add_char buf '\n'
  in
  (buf, line)

let event_line ev = Dsim.Event.to_line ev
let query_line q = Dsim.Api.request_to_line (Dsim.Api.Query q)

(* A node that is up and in service, by rejection sampling: at most a
   few percent of the nodes are ever down or out. *)
let draw_up rng ~down ~in_service =
  let rec go () =
    let nd = Combin.Rng.int rng n in
    if Bag.mem down nd || not in_service.(nd) then go () else nd
  in
  go ()

(* 85% create, 5% delete, 5% fail, 5% recover, and [advise create]
   after every 50th event: the population grows while it is measured. *)
let ingest_script ~seed ~events =
  let rng = Combin.Rng.create seed in
  let buf, line = emitter (events * 8) in
  let live = Bag.create () and next_id = ref 0 in
  let down = Bag.create () and in_service = Array.make n true in
  for i = 1 to events do
    let d = Combin.Rng.int rng 100 in
    if d < 85 || (d < 90 && Bag.size live = 0) then begin
      Bag.add live !next_id;
      incr next_id;
      line (event_line Dsim.Event.Object_create)
    end
    else if d < 90 then begin
      let id = Bag.draw live rng in
      Bag.remove live id;
      line (event_line (Dsim.Event.Object_delete id))
    end
    else if if d < 95 then Bag.size down < n else Bag.size down = 0 then begin
      let nd = draw_up rng ~down ~in_service in
      Bag.add down nd;
      line (event_line (Dsim.Event.Node_fail nd))
    end
    else begin
      let nd = Bag.draw down rng in
      Bag.remove down nd;
      line (event_line (Dsim.Event.Node_recover nd))
    end;
    if i mod 50 = 0 then line (query_line Dsim.Api.Advise_create)
  done;
  Buffer.contents buf

let max_down = 50

(* Node outages on a [racks]-rack partition: ~45% fail and ~45% recover
   with at most [max_down] nodes down from single failures, ~5% [query
   avail], ~5% [query lower-bound]; every [requests / 20] requests one
   whole rack fails (its nodes then come back through the recover
   traffic, which outweighs fails while more than [max_down] are down),
   and one node leaves and later re-joins — 20 pairs per script. *)
let outage_script ~seed ~requests =
  let rng = Combin.Rng.create seed in
  let tree = Topology.Build.partition ~n ~domains:racks () in
  let buf, line = emitter (requests * 10) in
  let down = Bag.create () and in_service = Array.make n true in
  let period = max 4 (requests / 20) in
  let left = ref (-1) in
  for i = 1 to requests do
    let phase = i mod period in
    if phase = 0 then begin
      let d = Combin.Rng.int rng racks in
      Array.iter
        (fun nd -> if in_service.(nd) then Bag.add down nd)
        (Topology.Tree.members tree ~level:1 d);
      line (event_line (Dsim.Event.Domain_fail (1, d)))
    end
    else if phase = period / 4 && !left < 0 then begin
      let nd = draw_up rng ~down ~in_service in
      in_service.(nd) <- false;
      left := nd;
      line (event_line (Dsim.Event.Node_leave nd))
    end
    else if phase = period / 2 && !left >= 0 then begin
      in_service.(!left) <- true;
      line (event_line (Dsim.Event.Node_join !left));
      left := -1
    end
    else
      let d = Combin.Rng.int rng 100 in
      if d < 90 then
        if if d < 45 then Bag.size down < max_down else Bag.size down = 0 then begin
          let nd = draw_up rng ~down ~in_service in
          Bag.add down nd;
          line (event_line (Dsim.Event.Node_fail nd))
        end
        else begin
          let nd = Bag.draw down rng in
          Bag.remove down nd;
          line (event_line (Dsim.Event.Node_recover nd))
        end
      else if d < 95 then line (query_line Dsim.Api.Avail)
      else line (query_line Dsim.Api.Lower_bound)
  done;
  Buffer.contents buf

(* The engine's own seeded churn mix (55/15/15/15 create, delete, fail,
   recover) over a set-up population, with [query worst] after every
   10th event. *)
let worst_query_script ~seed ~population ~events =
  let buf, line = emitter (events * 12) in
  List.iteri
    (fun i ev ->
      line (event_line ev);
      if (i + 1) mod 10 = 0 then line (query_line (Dsim.Api.Worst None)))
    (Dsim.Event.seeded ~rng:(Combin.Rng.create seed) ~n ~initial:population
       ~count:events ~measure_every:0 ());
  Buffer.contents buf

let script w ~seed spec =
  match w with
  | Ingest -> ingest_script ~seed ~events:spec.count
  | Outage -> outage_script ~seed ~requests:spec.count
  | Worst_query ->
      worst_query_script ~seed ~population:spec.population ~events:spec.count
  | Attack -> invalid_arg "Workload.script: attack has no request script"

(* A fresh session whose engine holds [population] objects, created
   through the engine's own create path. *)
let session w spec =
  let topology =
    match w with
    | Outage -> Some (Topology.Build.partition ~n ~domains:racks ())
    | _ -> None
  in
  let engine = Dsim.Churn.create ?topology ~n ~r ~s ~k () in
  for _ = 1 to spec.population do
    ignore (Dsim.Churn.apply engine Dsim.Event.Object_create)
  done;
  Dsim.Api.make engine

(* ------------------------------------------------------------------ *)
(* Attack inputs. *)

type attack = {
  big : Placement.Layout.t;  (** random, n = 10^4, b = 10^6: greedy k = 16 *)
  small : Placement.Layout.t;  (** random, n = 40, b = 800: exact k = 6 *)
  sts : Placement.Layout.t;  (** STS(69) Simple, b = 2400, relabelled *)
  tree : Topology.Tree.t;  (** 24 racks over [sts]'s 71 nodes *)
}

let greedy_k = 16
let exact_k = 6
let domain_j = 7

let random_layout rng ~n ~b ~k =
  Placement.Random_placement.place ~rng (Placement.Params.make ~b ~r ~s ~n ~k)

(* The seed relabels the design's nodes, so the rack cut and every
   lexicographic tie differ per seed while the design stays STS(69). *)
let sts_layout rng =
  let layout =
    (Placement.Simple.of_design (Designs.Steiner_triple.make 69) ~n:71 ~b:2400)
      .Placement.Simple.layout
  in
  let perm = Array.init 71 Fun.id in
  Combin.Rng.shuffle rng perm;
  Placement.Layout.make ~n:71 ~r
    (Array.map
       (fun rs ->
         let a = Array.map (fun nd -> perm.(nd)) rs in
         Array.sort compare a;
         a)
       layout.Placement.Layout.replicas)

let attack_inputs ~seed =
  let rngs = Combin.Rng.split_n (Combin.Rng.create seed) 3 in
  {
    big = random_layout rngs.(0) ~n:10_000 ~b:1_000_000 ~k:greedy_k;
    small = random_layout rngs.(1) ~n:40 ~b:800 ~k:exact_k;
    sts = sts_layout rngs.(2);
    tree = Topology.Build.partition ~n:71 ~domains:24 ();
  }
