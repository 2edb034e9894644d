(* The v2 server: a Reactor front end over the line handler.

   Threading model: the accept loop runs in [serve]'s thread and only
   accepts — each descriptor goes straight to the reactor, whose loop
   threads do all socket I/O.  A decoded frame becomes a job (inline on
   the loop, or on [dispatch]); its response is queued back on the
   connection from whatever thread the job ran on.

   Ordering contract, one rule per codec: a JSON-lines connection gets
   v1 semantics — responses in request order — even though jobs may
   complete out of order on the dispatch pool.  Each such request takes
   a sequence number at decode time (loop thread, so numbering matches
   arrival order) and [complete] holds finished responses until their
   turn.  A connection that negotiated the binary codec skips the
   machinery entirely: responses carry ids, order is the client's
   problem (that's the point).  Every server grants binary: without a
   [bin_handler] it derives one from the line handler
   ({!Codec.of_json_handler}).

   Stop protocol: [request_stop] must be callable from a SIGINT/SIGTERM
   handler, so it only flips an Atomic and shuts down the listening
   socket (waking a blocked accept).  The drain in [serve] then stops
   reactor reads, waits out in-flight jobs, and lets the reactor flush
   and close every connection. *)

open Psph_obs
module Serve = Psph_engine.Serve

type handler = string -> string

type metrics = {
  accepted : Obs.counter;
  closed : Obs.counter;
  requests : Obs.counter;
  frame_errors : Obs.counter;  (** oversized/garbage framing from a peer *)
  torn : Obs.counter;  (** peer died mid-frame *)
  deadline_exceeded : Obs.counter;
  active : Obs.gauge;
  request_s : Obs.histogram;
  hello : Obs.counter;  (** protocol negotiations *)
  binary : Obs.counter;  (** binary-codec requests *)
  dispatched : Obs.counter;  (** jobs run on the dispatch pool *)
}

type codec = Cjson | Cbinary

(* per-connection protocol state, the reactor's per-connection value;
   [Cbinary] connections answer out of order, keyed by request id *)
type cstate = {
  mutable codec : codec;
  mutable next_seq : int;  (** loop thread only: arrival order *)
  slk : Mutex.t;  (** guards the ordered-emit state and inflight below *)
  mutable next_emit : int;
  held : (int, string) Hashtbl.t;  (** finished early, waiting their turn *)
  mutable cinflight : int;
  mutable eof : bool;  (** close once the last in-flight response is out *)
}

type t = {
  lsock : Unix.file_descr;
  port : int;
  handler : handler;
  bin_handler : handler;
  dispatch : ((unit -> unit) -> unit) option;
  max_conns : int;
  deadline_s : float option;
  reactor : cstate Reactor.t;
  stopping : bool Atomic.t;
  inflight : int Atomic.t;
  mutable server_thread : Thread.t option;
  m : metrics;
}

let make_metrics prefix =
  {
    accepted = Obs.counter (prefix ^ ".accepted");
    closed = Obs.counter (prefix ^ ".closed");
    requests = Obs.counter (prefix ^ ".requests");
    frame_errors = Obs.counter (prefix ^ ".frame_errors");
    torn = Obs.counter (prefix ^ ".torn");
    deadline_exceeded = Obs.counter (prefix ^ ".deadline_exceeded");
    active = Obs.gauge (prefix ^ ".active");
    request_s = Obs.histogram (prefix ^ ".request_s");
    hello = Obs.counter (prefix ^ ".hello");
    binary = Obs.counter (prefix ^ ".binary_requests");
    dispatched = Obs.counter (prefix ^ ".dispatched");
  }

let span_parent_of line =
  match Jsonl.of_string_opt line with
  | Some (Jsonl.Obj _ as o) ->
      Option.bind (Jsonl.member "span_parent" o) Jsonl.to_int_opt
  | _ -> None

(* an error that echoes nothing of the request but, on binary, the
   frame's transport id: it stays far below Frame.max_frame *)
let short_error codec ?orig msg =
  match codec with
  | Cjson -> Serve.error_line msg
  | Cbinary ->
      let id = match orig with Some p -> Codec.request_id_of_payload p | None -> 0 in
      Codec.encode_reply (Codec.Failed { id; message = msg })

(* the error shape [codec] calls for, addressed to the request the
   [orig] payload holds: every binary frame carries its id *)
let error_for codec ?orig msg =
  match codec with
  | Cjson -> Serve.error_line ?orig msg
  | Cbinary -> (
      match Option.bind orig Codec.unescape_json with
      | Some (id, inner) -> Codec.escape_json ~id (Serve.error_line ~orig:inner msg)
      | None -> short_error codec ?orig msg)

(* ------------------------------------------------------------------ *)
(* response completion                                                 *)
(* ------------------------------------------------------------------ *)

let frame_of t codec ?orig resp =
  match Frame.encode resp with
  | bytes -> bytes
  | exception Frame.Oversized n ->
      Obs.incr t.m.frame_errors;
      let msg =
        Printf.sprintf "response too large (%d bytes, max %d)" n Frame.max_frame
      in
      (* the error echoes the request's id, which can itself be nearly
         max_frame long; the short error still answers in the
         request's slot *)
      (try Frame.encode (error_for codec ?orig msg)
       with Frame.Oversized _ -> Frame.encode (short_error codec ?orig msg))

(* the response slot of the next request: its arrival number on a JSON
   connection, -1 (no ordering) on a binary one.  Loop thread only. *)
let take_seq st =
  match st.codec with
  | Cbinary -> -1
  | Cjson ->
      let s = st.next_seq in
      st.next_seq <- s + 1;
      s

(* emit a response (one too large for a frame becomes an error in
   [codec]'s shape), honoring the ordered contract for JSON connections:
   [seq < 0] means the connection pipelines and the response goes
   straight out *)
let complete t conn st codec ?orig seq resp =
  let bytes = frame_of t codec ?orig resp in
  if seq < 0 then Reactor.send conn bytes
  else begin
    Mutex.lock st.slk;
    if seq = st.next_emit then begin
      Reactor.send conn bytes;
      st.next_emit <- seq + 1;
      let rec drain () =
        match Hashtbl.find_opt st.held st.next_emit with
        | Some b ->
            Hashtbl.remove st.held st.next_emit;
            Reactor.send conn b;
            st.next_emit <- st.next_emit + 1;
            drain ()
        | None -> ()
      in
      drain ()
    end
    else Hashtbl.add st.held seq bytes;
    Mutex.unlock st.slk
  end

let begin_inflight t st =
  Atomic.incr t.inflight;
  Mutex.lock st.slk;
  st.cinflight <- st.cinflight + 1;
  Mutex.unlock st.slk

let finish_inflight t conn st =
  Atomic.decr t.inflight;
  Mutex.lock st.slk;
  st.cinflight <- st.cinflight - 1;
  let close_now = st.eof && st.cinflight = 0 in
  Mutex.unlock st.slk;
  (* the peer stopped sending while we still owed responses; they are
     queued now, so flush-and-close *)
  if close_now then Reactor.close conn

(* ------------------------------------------------------------------ *)
(* request execution                                                   *)
(* ------------------------------------------------------------------ *)

let deadline_msg d = Printf.sprintf "deadline exceeded (%.0f ms limit)" (1000. *. d)

(* one request on a connection speaking [codec] (captured at decode
   time): time the handler, answer a raise as an internal error, and
   apply the deadline *)
let response t codec payload =
  let handle () =
    match codec with
    | Cbinary ->
        Obs.incr t.m.binary;
        t.bin_handler payload
    | Cjson -> (
        (* re-root under the span id the client put on the wire, so a
           loopback trace nests net.client.request -> serve.request
           across the socket; only meaningful (and only looked for) when
           a sink is live.  Without one the handler stays under the
           ambient span (its pool job). *)
        match
          if Obs.current_sink () = Obs.Null then None
          else span_parent_of payload
        with
        | None -> t.handler payload
        | parent -> Obs.with_parent parent (fun () -> t.handler payload))
  in
  let t0 = Obs.monotonic () in
  let resp =
    try handle ()
    with e ->
      error_for codec ~orig:payload ("internal error: " ^ Printexc.to_string e)
  in
  let elapsed = Obs.monotonic () -. t0 in
  Obs.observe t.m.request_s elapsed;
  match t.deadline_s with
  | Some d when elapsed > d ->
      (* cooperative: the work already ran, but the contract with the
         client is an error once the deadline has passed *)
      Obs.incr t.m.deadline_exceeded;
      error_for codec ~orig:payload (deadline_msg d)
  | _ -> resp

let run_job t job =
  match t.dispatch with
  | None -> job ()
  | Some d -> (
      Obs.incr t.m.dispatched;
      (* a dispatch pool that is already shut down must not lose the
         request — fall back to inline *)
      try d job with _ -> job ())

(* ------------------------------------------------------------------ *)
(* the hello handshake                                                 *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let hello_req payload =
  if String.length payload <= 512 && contains payload "\"hello\"" then
    match Jsonl.of_string_opt payload with
    | Some (Jsonl.Obj _ as req)
      when Option.bind (Jsonl.member "op" req) Jsonl.to_string_opt
           = Some "hello" ->
        Some req
    | _ -> None
  else None

let handle_hello t conn st req payload =
  Obs.incr t.m.hello;
  (* the binary codec keys responses by request id, which is what makes
     them order-free: binary is the one pipelined mode, and a JSON
     connection stays v1-ordered whatever the hello asked *)
  let codec =
    match Option.bind (Jsonl.member "codec" req) Jsonl.to_string_opt with
    | Some "binary" -> Cbinary
    | _ -> Cjson
  in
  let fields =
    [
      ("ok", Jsonl.Bool true);
      ("version", Jsonl.int 2);
      ("codec", Jsonl.Str (match codec with Cbinary -> "binary" | Cjson -> "json"));
      ("pipeline", Jsonl.Bool (codec = Cbinary));
      ("max_frame", Jsonl.int Frame.max_frame);
    ]
  in
  let fields =
    match Jsonl.member "id" req with
    | Some id -> ("id", id) :: fields
    | None -> fields
  in
  let resp = Jsonl.to_string (Jsonl.Obj fields) in
  (* the response itself still honors the pre-hello ordering; the mode
     switch applies from the next frame on (the client is required to
     wait for this answer before using what it negotiated) *)
  complete t conn st Cjson ~orig:payload (take_seq st) resp;
  st.codec <- codec

(* ------------------------------------------------------------------ *)
(* reactor callbacks                                                   *)
(* ------------------------------------------------------------------ *)

let on_frame t conn payload =
  let st = Reactor.user conn in
  let codec = st.codec in
  match match codec with Cjson -> hello_req payload | Cbinary -> None with
  | Some req -> handle_hello t conn st req payload
  | None ->
      Obs.incr t.m.requests;
      let seq = take_seq st in
      begin_inflight t st;
      run_job t (fun () ->
          complete t conn st codec ~orig:payload seq (response t codec payload);
          finish_inflight t conn st)

(* the peer will send nothing more (or nothing we can read): finish
   what is in flight, then close — the reactor flushes queued output
   first, and [finish_inflight] closes if a job is still running *)
let close_when_drained conn st =
  Mutex.lock st.slk;
  st.eof <- true;
  let idle = st.cinflight = 0 in
  Mutex.unlock st.slk;
  if idle then Reactor.close conn

let on_failure t conn fail =
  let st = Reactor.user conn in
  match fail with
  | Reactor.Torn -> Obs.incr t.m.torn
  | Reactor.Oversized len ->
      (* the stream is desynced: answer (the client's reader stays
         coherent — frames survive a poisoned peer) after the requests
         that preceded the bad header, and hang up *)
      Obs.incr t.m.frame_errors;
      let msg =
        Printf.sprintf "frame too large (%d bytes, max %d)" len Frame.max_frame
      in
      complete t conn st st.codec (take_seq st) (error_for st.codec msg);
      close_when_drained conn st

(* half-closed peers still read *)
let on_eof conn = close_when_drained conn (Reactor.user conn)

let on_close t =
  Obs.incr t.m.closed;
  Obs.gauge_add t.m.active (-1.0)

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let backlog = 64

let listen ?(metrics = "net.server") ?(max_conns = 64) ?deadline_s ?bin_handler
    ?dispatch ~handler addr =
  Addr.ignore_sigpipe ();
  match Addr.resolve addr with
  | Error _ as e -> e
  | Ok sockaddr -> (
      let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock sockaddr;
        Unix.listen sock backlog;
        let port =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> addr.Addr.port
        in
        let m = make_metrics metrics in
        let rec t =
          lazy
            {
              lsock = sock;
              port;
              handler;
              bin_handler =
                Option.value bin_handler
                  ~default:(Codec.of_json_handler handler);
              dispatch;
              max_conns = max 1 max_conns;
              deadline_s;
              reactor =
                Reactor.create ~metrics:(metrics ^ ".reactor")
                  ~on_frame:(fun conn payload ->
                    on_frame (Lazy.force t) conn payload)
                  ~on_failure:(fun conn fail ->
                    on_failure (Lazy.force t) conn fail)
                  ~on_eof
                  ~on_close:(fun _ -> on_close (Lazy.force t));
              stopping = Atomic.make false;
              inflight = Atomic.make 0;
              server_thread = None;
              m;
            }
        in
        Ok (Lazy.force t)
      with Unix.Unix_error (e, fn, _) ->
        (try Unix.close sock with _ -> ());
        Error
          (Printf.sprintf "cannot listen on %s: %s (%s)" (Addr.to_string addr)
             (Unix.error_message e) fn))

let port t = t.port

let request_stop t =
  if not (Atomic.exchange t.stopping true) then
    (* aborts a blocked/future accept; everything else happens on the
       normal-context drain path, keeping this safe in a signal handler *)
    try Unix.shutdown t.lsock Unix.SHUTDOWN_ALL with _ -> ()

let fresh_cstate () =
  {
    codec = Cjson;
    next_seq = 0;
    slk = Mutex.create ();
    next_emit = 0;
    held = Hashtbl.create 8;
    cinflight = 0;
    eof = false;
  }

let serve t =
  Reactor.start t.reactor;
  let rec accept_loop () =
    while
      Reactor.active t.reactor >= t.max_conns && not (Atomic.get t.stopping)
    do
      (* no timed condvar in stdlib and [request_stop] may run in signal
         context: wait in short slices, re-checking the stopping flag *)
      Thread.delay 0.05
    done;
    if not (Atomic.get t.stopping) then
      match Unix.accept ~cloexec:true t.lsock with
      | fd, _ ->
          Obs.incr t.m.accepted;
          Obs.gauge_add t.m.active 1.0;
          (match Reactor.add t.reactor ~user:(fresh_cstate ()) fd with
          | (_ : cstate Reactor.conn) -> ()
          | exception _ -> ( try Unix.close fd with _ -> ()));
          accept_loop ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          accept_loop ()
      | exception Unix.Unix_error _ ->
          (* EMFILE and friends: back off and retry unless stopping
             (shutdown of the listening socket also lands here) *)
          if not (Atomic.get t.stopping) then begin
            (try Thread.delay 0.05 with _ -> ());
            accept_loop ()
          end
  in
  (try accept_loop () with _ -> ());
  (* drain: no new reads, wait out the in-flight jobs (their responses
     queue on the connections), then the reactor flushes and closes *)
  Reactor.stop_reading t.reactor;
  while Atomic.get t.inflight > 0 do
    Thread.delay 0.002
  done;
  Reactor.stop t.reactor;
  try Unix.close t.lsock with _ -> ()

let start t = t.server_thread <- Some (Thread.create (fun () -> serve t) ())

(* a [dispatch] for handlers that block on their own downstream I/O
   (e.g. a Router waiting on a backend): one thread per in-flight job up
   to [dispatch_threads], inline beyond that so overload degrades to
   backpressure instead of unbounded thread creation *)
let dispatch_threads = 256

let threaded_dispatch () =
  let active = Atomic.make 0 in
  fun job ->
    if Atomic.fetch_and_add active 1 < dispatch_threads then
      ignore
        (Thread.create
           (fun () -> Fun.protect ~finally:(fun () -> Atomic.decr active) job)
           ())
    else begin
      Atomic.decr active;
      job ()
    end

let stop t =
  request_stop t;
  match t.server_thread with
  | Some th ->
      Thread.join th;
      t.server_thread <- None
  | None -> ()
