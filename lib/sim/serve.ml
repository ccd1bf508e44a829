type reason = Eof | Signal | Timeout | Max_events

let reason_label = function
  | Eof -> "eof"
  | Signal -> "signal"
  | Timeout -> "timeout"
  | Max_events -> "max-events"

type outcome = { reason : reason; responses : int }

(* A request line longer than this is refused and discarded, so one peer
   cannot grow the daemon's memory to the size of its input. *)
let max_line = 65_536

(* One flag for the whole process: signal handlers are global state, so
   installing twice is harmless and nested serve loops share the flag. *)
let stop = ref false
let signals_installed = ref false

let install_signals () =
  if not !signals_installed then begin
    signals_installed := true;
    let handle = Sys.Signal_handle (fun _ -> stop := true) in
    Sys.set_signal Sys.sigterm handle;
    Sys.set_signal Sys.sigint handle;
    (* A vanished peer must read as EPIPE (handled as end-of-session),
       not kill the daemon. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  end

let stop_requested () = !stop

(* ------------------------------------------------------------------ *)
(* Writing: full-buffer writes with EINTR retry.  A closed peer (EPIPE)
   reads as end-of-session, not a crash. *)

exception Peer_gone

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> raise Peer_gone
  done

(* ------------------------------------------------------------------ *)
(* The daemon loop.

   Reads newline-delimited requests from [input], answers each on
   [output] as a single-line placement/v1 envelope, and keeps going
   until EOF, an idle timeout, a delivered SIGTERM/SIGINT (drain: the
   lines already buffered are still answered), or the [max_events]
   guard.  Parse errors and overlong lines are answered inline with
   their 1-based line number and never kill the session.  Everything is
   deterministic for a given request stream — the timing only decides
   when the session ends, never what a response contains. *)
let run ?max_events ?snapshot_every ?(timeout = 0.) session ~input ~output =
  let responses = ref 0 in
  let lineno = ref 0 in
  let applied = ref 0 in
  let finished = ref None in
  let finish reason = if !finished = None then finished := Some reason in
  let out = Buffer.create 256 in
  let respond resp =
    incr responses;
    Buffer.clear out;
    Api.add_response out resp;
    write_all output (Buffer.contents out)
  in
  let snapshot () =
    match snapshot_every with
    | Some every when every > 0 && !applied mod every = 0 ->
        incr responses;
        write_all output
          (Api.snapshot_line ~after_events:!applied (Api.stats session) ^ "\n")
    | _ -> ()
  in
  let handle_line line =
    if !finished = None then begin
      incr lineno;
      match Api.parse_request line with
      | Ok None -> ()
      | Error msg -> respond (Api.parse_error session !lineno msg)
      | Ok (Some req) -> (
          match req with
          | Api.Apply _
            when match max_events with
                 | Some cap -> !applied >= cap
                 | None -> false ->
              respond
                (Api.reject_line session !lineno
                   (Printf.sprintf
                      "event limit reached (--max-events %d); draining"
                      (Option.get max_events)));
              finish Max_events
          | _ ->
              let resp = Api.exec session req in
              respond resp;
              (match resp with
              | Api.Applied _ ->
                  incr applied;
                  snapshot ()
              | _ -> ()))
    end
  in
  let overlong () =
    if !finished = None then begin
      incr lineno;
      respond
        (Api.reject_line session !lineno
           (Printf.sprintf "request line exceeds %d bytes; discarded" max_line))
    end
  in
  (* Line framing over raw reads: [pending] holds the bytes of the
     current unterminated line.  Each read is scanned for '\n' once and
     only complete lines are copied out, so a line of L bytes costs
     O(L) however many reads it spans.  A line that grows past
     [max_line] is answered as soon as it does and its bytes are
     dropped through the next '\n' ([discarding]), so [pending] never
     holds more than [max_line] bytes.  A trailing unterminated line is
     still processed at EOF. *)
  let pending = Buffer.create 256 in
  let discarding = ref false in
  let chunk = Bytes.create 65536 in
  let append start stop =
    if not !discarding then
      if Buffer.length pending + (stop - start) > max_line then begin
        Buffer.reset pending;
        discarding := true;
        overlong ()
      end
      else Buffer.add_subbytes pending chunk start (stop - start)
  in
  let take_lines n =
    let rec go start i =
      if i = n then append start n
      else if Bytes.get chunk i = '\n' then begin
        append start i;
        if !discarding then discarding := false
        else begin
          let line = Buffer.contents pending in
          Buffer.clear pending;
          handle_line line
        end;
        go (i + 1) (i + 1)
      end
      else go start (i + 1)
    in
    go 0 0
  in
  (try
     let eof = ref false in
     while (not !eof) && !finished = None do
       if !stop then finish Signal
       else begin
         (* Ready: data (or EOF) to read.  Idle: the timeout elapsed.
            Retry: a signal interrupted the wait — loop to re-check the
            stop flag before anything else. *)
         let readable =
           match
             Unix.select [ input ] [] []
               (if timeout > 0. then timeout else -1.)
           with
           | [], _, _ -> `Idle
           | _ -> `Ready
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Retry
         in
         if !stop then finish Signal
         else
           match readable with
           | `Idle -> finish Timeout
           | `Retry -> ()
           | `Ready -> (
               match Unix.read input chunk 0 (Bytes.length chunk) with
               | 0 -> eof := true
               | n -> take_lines n
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
       end
     done;
     (* Drain: answer what was already buffered, even on a signal. *)
     if Buffer.length pending > 0 then handle_line (Buffer.contents pending)
   with Peer_gone -> finish Eof);
  let reason =
    match !finished with Some reason -> reason | None -> Eof
  in
  (try
     write_all output
       (Api.summary_line ~reason:(reason_label reason) (Api.stats session)
       ^ "\n")
   with Peer_gone -> ());
  { reason; responses = !responses }
