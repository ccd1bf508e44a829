exception Nested_use

type t = {
  domains : int;
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when the queue grows or on shutdown *)
  batch_done : Condition.t;  (* signalled when a batch's last task ends *)
  mutable queue : (unit -> unit) list;
  mutable pending : int;  (* tasks of the current batch not yet finished *)
  mutable live : bool;
  mutable workers : unit Domain.t list;
  busy : bool Atomic.t;  (* a batch is in flight: nested use is rejected *)
  slot_tasks : Telemetry.Counter.t array;  (* per-domain task counts *)
}

(* Scheduling metrics are volatile by construction: chunk counts and
   per-domain attribution depend on -j and on timing, so none of them may
   claim the Stable (bit-identical across -j) contract. *)
let m_batches = Telemetry.Registry.counter ~kind:Volatile "engine/pool/batches"
let m_tasks = Telemetry.Registry.counter ~kind:Volatile "engine/pool/tasks"
let m_busy_ns = Telemetry.Registry.counter ~kind:Volatile "engine/pool/busy_ns"
let m_batch = Telemetry.Registry.span ~kind:Volatile "engine/pool/batch"
let m_util = Telemetry.Registry.gauge "engine/pool/utilization"

let slot_counter i =
  Telemetry.Registry.counter ~kind:Volatile
    (Printf.sprintf "engine/pool/domain/%d/tasks" i)

(* Run one queued task on behalf of domain slot [slot] (0 = the caller,
   1.. = spawned workers), attributing its wall time to the pool. *)
let run_task t slot task =
  if Telemetry.Control.on () then begin
    let t0 = Telemetry.Control.now_ns () in
    task ();
    Telemetry.Counter.add m_busy_ns (Telemetry.Control.now_ns () - t0);
    Telemetry.Counter.incr t.slot_tasks.(slot);
    Telemetry.Counter.incr m_tasks
  end
  else task ()

(* Cumulative utilization: busy time over wall time across all domains of
   this pool, folded over every batch so far. *)
let update_utilization t =
  if Telemetry.Control.on () then begin
    let wall = Telemetry.Span.total_ns m_batch in
    if wall > 0 then
      Telemetry.Gauge.set m_util
        (float_of_int (Telemetry.Counter.value m_busy_ns)
        /. (float_of_int wall *. float_of_int t.domains))
  end

let default_domains () = max 1 (Domain.recommended_domain_count ())

let pop_task t =
  match t.queue with
  | [] -> None
  | task :: rest ->
      t.queue <- rest;
      Some task

let finish_task t =
  Mutex.lock t.mutex;
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.batch_done;
  Mutex.unlock t.mutex

(* Worker domains sleep on [work] and drain the queue; each task is
   responsible for decrementing [pending] (see [finish_task]). *)
let worker_loop t slot =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec next () =
      match pop_task t with
      | Some task ->
          Mutex.unlock t.mutex;
          run_task t slot task;
          finish_task t;
          loop ()
      | None ->
          if t.live then begin
            Condition.wait t.work t.mutex;
            next ()
          end
          else Mutex.unlock t.mutex
    in
    next ()
  in
  loop ()

let create ?domains () =
  let domains =
    match domains with None -> default_domains () | Some d -> max 1 d
  in
  let t =
    {
      domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      batch_done = Condition.create ();
      queue = [];
      pending = 0;
      live = true;
      workers = [];
      busy = Atomic.make false;
      slot_tasks = Array.init domains slot_counter;
    }
  in
  t.workers <-
    List.init (domains - 1)
      (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let domains t = t.domains

let shutdown t =
  Mutex.lock t.mutex;
  t.live <- false;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [tasks.(i) ()] for every i, on the workers plus the calling domain,
   and re-raise the first (lowest-indexed) exception once all tasks have
   settled.  Tasks must not touch the pool: rejected via [busy]. *)
let run_batch t tasks =
  let ntasks = Array.length tasks in
  if ntasks > 0 then begin
    if not (Atomic.compare_and_set t.busy false true) then raise Nested_use;
    Fun.protect
      ~finally:(fun () -> Atomic.set t.busy false)
      (fun () ->
        Telemetry.Counter.incr m_batches;
        Telemetry.Span.time m_batch (fun () ->
            let exns = Array.make ntasks None in
            let wrap i task () =
              match task () with
              | () -> ()
              | exception e -> exns.(i) <- Some e
            in
            Mutex.lock t.mutex;
            t.pending <- ntasks;
            (* The queue is empty here: [busy] admits one batch at a time. *)
            t.queue <- Array.to_list (Array.mapi wrap tasks);
            Condition.broadcast t.work;
            (* The caller drains the queue alongside the workers, then blocks
               until stragglers finish. *)
            let rec drain () =
              match pop_task t with
              | Some task ->
                  Mutex.unlock t.mutex;
                  run_task t 0 task;
                  finish_task t;
                  Mutex.lock t.mutex;
                  drain ()
              | None ->
                  while t.pending > 0 do
                    Condition.wait t.batch_done t.mutex
                  done;
                  Mutex.unlock t.mutex
            in
            drain ();
            Array.iter (function Some e -> raise e | None -> ()) exns);
        update_utilization t)
  end

(* Split [len] items into at most [domains * 4] contiguous chunks so that
   uneven task costs still spread across domains; chunk boundaries are a
   pure function of [len] and [domains], never of timing. *)
let chunk_bounds t len =
  let chunks = min len (t.domains * 4) in
  Array.init chunks (fun c -> (c * len / chunks, (c + 1) * len / chunks))

let parallel_map t f xs =
  let len = Array.length xs in
  if len = 0 then [||]
  else if t.domains = 1 then begin
    (* Reference sequential path: same busy discipline, same order. *)
    if not (Atomic.compare_and_set t.busy false true) then raise Nested_use;
    Fun.protect
      ~finally:(fun () -> Atomic.set t.busy false)
      (fun () ->
        Telemetry.Counter.incr m_batches;
        let r = ref [||] in
        Telemetry.Span.time m_batch (fun () ->
            run_task t 0 (fun () -> r := Array.map f xs));
        update_utilization t;
        !r)
  end
  else begin
    let results = Array.make len None in
    let tasks =
      Array.map
        (fun (lo, hi) () ->
          for i = lo to hi - 1 do
            results.(i) <- Some (f xs.(i))
          done)
        (chunk_bounds t len)
    in
    run_batch t tasks;
    Array.map (function Some v -> v | None -> assert false) results
  end
