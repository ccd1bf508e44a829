(* The closed loop: one client with zero think time sends the next line
   only after the previous response is written.  Per line it does what
   Dsim.Serve does — parse, exec, render, write — with the line framing
   left out.  An untraced pass reads the clock twice per request; a
   traced pass times each call separately and, before every create,
   times the non-mutating routing mirror [Churn.advise_create]. *)

let kinds =
  [| "create"; "delete"; "fail"; "recover"; "fail_domain"; "leave"; "join";
     "worst"; "avail"; "lower_bound"; "advise"; "other" |]

let kind_index name =
  let rec go i = if kinds.(i) = name then i else go (i + 1) in
  go 0

let create = kind_index "create"

(* Indices into [kinds]. *)
let kind_of = function
  | Ok (Some (Dsim.Api.Apply ev)) -> (
      match ev with
      | Dsim.Event.Object_create -> 0
      | Dsim.Event.Object_delete _ -> 1
      | Dsim.Event.Node_fail _ -> 2
      | Dsim.Event.Node_recover _ -> 3
      | Dsim.Event.Domain_fail _ -> 4
      | Dsim.Event.Node_leave _ -> 5
      | Dsim.Event.Node_join _ -> 6
      | Dsim.Event.Measure _ -> 11)
  | Ok (Some (Dsim.Api.Query (Dsim.Api.Worst _))) -> 7
  | Ok (Some (Dsim.Api.Query Dsim.Api.Avail)) -> 8
  | Ok (Some (Dsim.Api.Query Dsim.Api.Lower_bound)) -> 9
  | Ok (Some (Dsim.Api.Query Dsim.Api.Advise_create)) -> 10
  | _ -> 11

(* FNV-1a over the response bytes, folded into OCaml's 63-bit ints: no
   allocation, so hashing between requests does not disturb the GC
   counts of the pass. *)
let digest_init = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

let digest_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h

type pass = {
  ops : int;
  rejected : int;
  digest : int;
  kind : Bytes.t;  (** kind index per request *)
  latency_ns : int array;  (** parse + exec + render + write, per request *)
  exec_ns : int array;  (** per request; traced passes only *)
  route_ns : int array;  (** one per create; traced passes only *)
  parse_total_ns : int;  (** traced passes only, as are the two below *)
  render_total_ns : int;
  write_total_ns : int;
}

let count_lines script =
  let c = ref 0 in
  String.iter (fun ch -> if ch = '\n' then incr c) script;
  !c

let write_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* Per-request samples live off the OCaml heap while the pass runs, so
   the bench's own arrays add nothing to the program's major-GC marking. *)
let samples n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let to_array a n = Array.init n (Bigarray.Array1.get a)

let run ?(traced = false) ?(on_response = ignore) session ~out script =
  let ops = count_lines script in
  let kind = Bytes.make ops '\000' and latency_ns = samples ops in
  let exec_ns = samples (if traced then ops else 0) in
  let route_ns = samples (if traced then ops else 0) in
  let routes = ref 0 in
  let parse_t = ref 0 and render_t = ref 0 and write_t = ref 0 in
  let rejected = ref 0 and digest = ref digest_init in
  let engine = Dsim.Api.engine session in
  let start = ref 0 in
  for i = 0 to ops - 1 do
    let nl = String.index_from script !start '\n' in
    let line = String.sub script !start (nl - !start) in
    start := nl + 1;
    let t0 = Stats.now_ns () in
    let parsed = Dsim.Api.parse_request line in
    let t1 = if traced then Stats.now_ns () else 0 in
    let kd = if traced then kind_of parsed else 0 in
    if traced && kd = create then begin
      (try ignore (Dsim.Churn.advise_create engine) with Invalid_argument _ -> ());
      route_ns.{!routes} <- Stats.now_ns () - t1;
      incr routes
    end;
    let t2 = if traced then Stats.now_ns () else 0 in
    let resp =
      match parsed with
      | Ok (Some req) -> Dsim.Api.exec session req
      | Error msg -> Dsim.Api.parse_error session (i + 1) msg
      | Ok None -> invalid_arg "Loop.run: blank or comment line in the script"
    in
    let t3 = if traced then Stats.now_ns () else 0 in
    let text = Dsim.Api.response_to_line resp ^ "\n" in
    let t4 = if traced then Stats.now_ns () else 0 in
    write_all out text;
    let t5 = Stats.now_ns () in
    if traced then begin
      parse_t := !parse_t + (t1 - t0);
      exec_ns.{i} <- t3 - t2;
      render_t := !render_t + (t4 - t3);
      write_t := !write_t + (t5 - t4);
      latency_ns.{i} <- t1 - t0 + (t5 - t2)
    end
    else latency_ns.{i} <- t5 - t0;
    Bytes.unsafe_set kind i (Char.unsafe_chr (kind_of parsed));
    (match resp with Dsim.Api.Rejected _ -> incr rejected | _ -> ());
    digest := digest_string !digest text;
    on_response text
  done;
  {
    ops;
    rejected = !rejected;
    digest = !digest;
    kind;
    latency_ns = to_array latency_ns ops;
    exec_ns = to_array exec_ns (Bigarray.Array1.dim exec_ns);
    route_ns = to_array route_ns !routes;
    parse_total_ns = !parse_t;
    render_total_ns = !render_t;
    write_total_ns = !write_t;
  }

(* The samples of [a] whose request kind satisfies [keep]. *)
let select pass a keep =
  let keep_at i = keep (Char.code (Bytes.get pass.kind i)) in
  let n = ref 0 in
  Array.iteri (fun i _ -> if keep_at i then incr n) a;
  let out = Array.make !n 0 and j = ref 0 in
  Array.iteri
    (fun i v ->
      if keep_at i then begin
        out.(!j) <- v;
        incr j
      end)
    a;
  out
