(* Reconnecting request/response client with optional pipelining over
   the binary codec (wire protocol v2).

   The v1 discipline survives intact for plain clients: each attempt
   gets [timeout_ms] of budget covering connect, send and receive
   (nonblocking connect + select, SO_SNDTIMEO / SO_RCVTIMEO), and any
   failed attempt discards the socket, because on an id-less connection
   a late response would be mistaken for the answer to the next request.

   Binary connections change exactly that last rule.  Every binary
   frame, JSON escape included, carries a transport id, and the client
   keys its in-flight window on it, so a late response is identifiable
   — and therefore harmless.  A timed-out request keeps the connection:
   the retry flies with a fresh id, and when the orphaned response
   eventually lands it misses the window and is dropped and counted
   ([net.client.stale_response]) instead of poisoning the stream.  Only
   transport-level failures (torn frames, oversized frames, dead
   sockets) tear a binary connection down.

   The driver below runs every request — {!request} included — through
   one pump, whose mode is the client's: binary (a hello frame on each
   fresh connection; hot ops as {!Codec} bytes, everything else
   escape-tagged JSON, all matched by id) or v1 (plain clients): a
   window of one slot, matched by position, whose overdue slot tears
   the connection down.  A v1 connection is thus the sequential v1
   client, byte for byte.  A hello that is not granted fails the
   attempt; a binary client never speaks v1. *)

open Psph_obs

type error = Timeout | Connection of string | Protocol of string

let is_retryable = function Timeout | Connection _ -> true | Protocol _ -> false

let error_message = function
  | Timeout -> "request timed out"
  | Connection m -> m
  | Protocol m -> "protocol error: " ^ m

exception Err of error

type metrics = {
  requests : Obs.counter;
  errors : Obs.counter;
  retries : Obs.counter;
  reconnects : Obs.counter;
  timeouts : Obs.counter;
  pipelined : Obs.counter;
  stale : Obs.counter;
  request_s : Obs.histogram;
  span_name : string;
  pipeline_span : string;
}

type conn = {
  fd : Unix.file_descr;
  reader : Frame.reader;  (* persistent: frames can span reads *)
  rbuf : Bytes.t;  (* socket read buffer, reused by every exchange *)
  wbuf : Buffer.t;  (* frames staged for one write; empty between drives *)
  mutable granted : bool;  (* binary clients: the hello was granted *)
}

type t = {
  addr : Addr.t;
  timeout_s : float;
  max_retries : int;
  backoff_s : float;
  binary : bool;  (* negotiate the binary codec on fresh connections *)
  pipeline_depth : int;
  rng : Random.State.t;
  lock : Mutex.t;
  mutable conn : conn option;
  mutable tid : int;
  m : metrics;
}

let create ?(metrics = "net.client") ?(timeout_ms = 5000) ?(retries = 3)
    ?(backoff_ms = 50) ?(codec = `Json) ?(pipeline_depth = 1) addr =
  (* a write to a peer-closed socket fails with EPIPE, a retryable
     Connection error below *)
  Addr.ignore_sigpipe ();
  {
    addr;
    timeout_s = float_of_int timeout_ms /. 1000.;
    max_retries = max 0 retries;
    backoff_s = float_of_int backoff_ms /. 1000.;
    binary = codec = `Binary || pipeline_depth > 1;
    pipeline_depth = max 1 pipeline_depth;
    rng = Random.State.make_self_init ();
    lock = Mutex.create ();
    conn = None;
    tid = 0;
    m =
      {
        requests = Obs.counter (metrics ^ ".requests");
        errors = Obs.counter (metrics ^ ".errors");
        retries = Obs.counter (metrics ^ ".retries");
        reconnects = Obs.counter (metrics ^ ".reconnects");
        timeouts = Obs.counter (metrics ^ ".timeouts");
        pipelined = Obs.counter (metrics ^ ".pipelined");
        stale = Obs.counter (metrics ^ ".stale_response");
        request_s = Obs.histogram (metrics ^ ".request_s");
        span_name = metrics ^ ".request";
        pipeline_span = metrics ^ ".pipeline";
      };
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let next_tid t =
  let v = t.tid in
  t.tid <- (v + 1) land Codec.max_id;
  v

let disconnect t =
  match t.conn with
  | None -> ()
  | Some c ->
      t.conn <- None;
      (try Unix.close c.fd with _ -> ())

let close t = locked t (fun () -> disconnect t)

let connection fmt = Printf.ksprintf (fun m -> raise (Err (Connection m))) fmt

let as_error = function Err e -> e | e -> Connection (Printexc.to_string e)

(* the peer (or a chaos proxy between us and it) killed the connection
   under us mid-request.  Named explicitly rather than left to the
   catch-all so the taxonomy is stable — these are the errors a reset
   storm surfaces constantly — and kept retryable: a fresh connection
   may well land on a healthy peer. *)
let reset_name = function
  | Unix.ECONNRESET -> Some "ECONNRESET"
  | Unix.EPIPE -> Some "EPIPE"
  | Unix.ECONNABORTED -> Some "ECONNABORTED"
  | _ -> None

let connection_io what e =
  match reset_name e with
  | Some name -> connection "connection reset by peer mid-request (%s)" name
  | None -> connection "%s failed: %s" what (Unix.error_message e)

let connect_with_timeout t deadline =
  let sockaddr =
    match Addr.resolve t.addr with
    | Ok sa -> sa
    | Error m -> raise (Err (Connection m))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.set_nonblock fd;
    (match Unix.connect fd sockaddr with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
      -> (
        let budget = deadline -. Obs.monotonic () in
        if budget <= 0. then raise (Err Timeout);
        match Unix.select [] [ fd ] [] budget with
        | _, [], _ -> raise (Err Timeout)
        | _ -> (
            match Unix.getsockopt_error fd with
            | None -> ()
            | Some e ->
                connection "connect to %s: %s" (Addr.to_string t.addr)
                  (Unix.error_message e)))
    | exception Unix.Unix_error (e, _, _) ->
        connection "connect to %s: %s" (Addr.to_string t.addr)
          (Unix.error_message e));
    Unix.clear_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
    fd
  with e ->
    (try Unix.close fd with _ -> ());
    raise e

let ensure_connected t deadline =
  match t.conn with
  | Some c -> c
  | None ->
      Obs.incr t.m.reconnects;
      let fd = connect_with_timeout t deadline in
      let c =
        {
          fd;
          reader = Frame.reader ();
          rbuf = Bytes.create 65536;
          wbuf = Buffer.create 4096;
          granted = false;
        }
      in
      t.conn <- Some c;
      c

(* setsockopt_float truncates to whole microseconds, and a zero timeout
   means "no timeout": keep a floor so a sub-microsecond residual budget
   can never turn a should-be-timeout into an indefinite block *)
let set_timeout fd opt budget =
  try Unix.setsockopt_float fd opt (Float.max budget 0.001) with _ -> ()

(* the attempt deadline bounds the send too: a peer that accepts the
   connection but stops reading while our socket buffer is full must
   surface as Timeout, not stall past the budget *)
let send_all fd s deadline =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let budget = deadline -. Obs.monotonic () in
      if budget <= 0. then raise (Err Timeout);
      set_timeout fd Unix.SO_SNDTIMEO budget;
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise (Err Timeout)
      | exception Unix.Unix_error (e, _, _) -> connection_io "send" e
    end
  in
  go 0

(* one read (waiting at most [budget] seconds) into the connection's
   reader.  Any failure discards the whole connection (reader included),
   so a half-frame can never leak into the next exchange. *)
let read_into c budget =
  set_timeout c.fd Unix.SO_RCVTIMEO budget;
  match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
  | 0 -> connection "connection closed by server (torn frame)"
  | n -> (
      match Frame.feed c.reader c.rbuf 0 n with
      | () -> ()
      | exception Frame.Oversized len ->
          raise
            (Err
               (Protocol
                  (Printf.sprintf "oversized frame from server (%d bytes)" len))))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise (Err Timeout)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> connection_io "receive" e

(* read until one payload is complete or the deadline runs out *)
let rec recv_one c deadline =
  match Frame.next c.reader with
  | Some payload -> payload
  | None ->
      let budget = deadline -. Obs.monotonic () in
      if budget <= 0. then raise (Err Timeout);
      read_into c budget;
      recv_one c deadline

(* carry the ambient span id across the wire (only while tracing: the
   rewrite costs a parse, and span ids only mean something to a trace) *)
let with_span_parent line =
  match Obs.current_span_id () with
  | Some id when Obs.current_sink () <> Obs.Null -> (
      match Jsonl.of_string_opt line with
      | Some (Jsonl.Obj fields) ->
          Jsonl.to_string (Jsonl.Obj (fields @ [ ("span_parent", Jsonl.int id) ]))
      | _ -> line)
  | _ -> line

let max_backoff_s = 2.

let backoff_delay t n =
  let cap = Float.min max_backoff_s (t.backoff_s *. (2. ** float_of_int n)) in
  Random.State.float t.rng cap

(* ------------------------------------------------------------------ *)
(* negotiation                                                         *)
(* ------------------------------------------------------------------ *)

let hello_line = {|{"op":"hello","version":2,"codec":"binary"}|}

(* every server grants binary, so anything else is a grant damaged in
   transit.  The server may already have switched to binary, so the
   connection cannot carry on in v1: fail the attempt (retryable), and
   the retry renegotiates on a fresh connection. *)
let negotiate c deadline =
  send_all c.fd (Frame.encode hello_line) deadline;
  let resp = recv_one c deadline in
  match Jsonl.of_string_opt resp with
  | Some o
    when Jsonl.member "ok" o = Some (Jsonl.Bool true)
         && Option.bind (Jsonl.member "version" o) Jsonl.to_int_opt = Some 2
         && Option.bind (Jsonl.member "codec" o) Jsonl.to_string_opt
            = Some "binary" ->
      c.granted <- true
  | _ -> connection "hello not granted: %S" resp

(* connect if needed; a binary client negotiates each fresh connection.
   Plain clients (no binary, depth 1) never send a hello: they stay
   byte-for-byte the v1 client. *)
let ensure_ready t =
  let deadline = Obs.monotonic () +. t.timeout_s in
  let c = ensure_connected t deadline in
  if t.binary && not c.granted then negotiate c deadline;
  c

(* ------------------------------------------------------------------ *)
(* the pipelined driver                                                *)
(* ------------------------------------------------------------------ *)

(* one request through the driver.  [bin] is [Some] for a hot op,
   holding its pre-encoded binary request (id 0, stamped per send), so
   the per-flight cost is a copy, not an encode; [None] sends the line
   as a JSON escape.  Every form is lazy: a v1 exchange never parses
   its line, a binary one never prints it. *)
type prepared = {
  jline : string Lazy.t;
  jobj : Jsonl.t option Lazy.t;
  bin : string option Lazy.t;
}

type ditem = { req : prepared; mutable attempts : int (* failed attempts so far *) }

(* how a resolved response is represented, so [pipeline] and
   [eval_many] can each convert without an extra round trip through the
   other's format *)
type rv =
  | Rbin of Codec.reply  (* binary reply, ids already transport-level *)
  | Rraw of string  (* verbatim response line (escaped or v1) *)

let drive ?on_latency t (items : ditem array) =
  let n = Array.length items in
  let results : (rv, error) result option array = Array.make n None in
  let unresolved () = Array.exists Option.is_none results in
  let resolve ?latency idx r =
    if results.(idx) = None then begin
      results.(idx) <- Some r;
      match r with
      | Ok _ ->
          Option.iter
            (fun l ->
              Obs.observe t.m.request_s l;
              match on_latency with Some f -> f idx l | None -> ())
            latency
      | Error _ -> Obs.incr t.m.errors
    end
  in
  (* count a failed attempt against an item; resolve it once the retry
     budget is spent or the failure is fatal *)
  let bump e idx =
    let it = items.(idx) in
    it.attempts <- it.attempts + 1;
    if (not (is_retryable e)) || it.attempts > t.max_retries then
      resolve idx (Error e)
    else Obs.incr t.m.retries
  in
  let pending = Queue.create () in
  let rebuild_pending () =
    Queue.clear pending;
    Array.iteri (fun i r -> if r = None then Queue.add i pending) results
  in
  let streak = ref 0 in
  (* the connection is unusable: each victim pays an attempt (fatal
     errors resolve them outright), the survivors re-fly on a fresh
     connection after a backoff *)
  let teardown e victims =
    disconnect t;
    if e = Timeout then Obs.incr t.m.timeouts;
    List.iter (bump e) victims;
    if unresolved () then begin
      Thread.delay (backoff_delay t !streak);
      incr streak
    end
  in

  (* the one pump.  On a binary connection every request is windowed by
     transport id; a v1 connection is a window of one slot, sent as its
     plain line and answered by whatever comes back next. *)
  let pump c =
    let binary = t.binary in
    let depth = if binary then t.pipeline_depth else 1 in
    (* tid -> (item index, sent_at, deadline) *)
    let window = Hashtbl.create (2 * depth) in
    let out = c.wbuf in
    let fill () =
      while Hashtbl.length window < depth && not (Queue.is_empty pending) do
        let idx = Queue.pop pending in
        if results.(idx) = None then begin
          let it = items.(idx) in
          let tid = next_tid t in
          let payload =
            if not binary then with_span_parent (Lazy.force it.req.jline)
            else
              match Lazy.force it.req.bin with
              | Some tpl ->
                  Obs.incr t.m.pipelined;
                  Codec.request_with_id tpl tid
              | None -> Codec.escape_json ~id:tid (Lazy.force it.req.jline)
          in
          let now = Obs.monotonic () in
          Frame.encode_into out payload;
          Hashtbl.replace window tid (idx, now, now +. t.timeout_s)
        end
      done
    in
    let flush () =
      if Buffer.length out > 0 then begin
        let data = Buffer.contents out in
        Buffer.clear out;
        send_all c.fd data (Obs.monotonic () +. t.timeout_s)
      end
    in
    let answer tid v =
      match Hashtbl.find_opt window tid with
      | Some (idx, sent, _) ->
          Hashtbl.remove window tid;
          resolve ~latency:(Obs.monotonic () -. sent) idx (Ok v)
      | None -> Obs.incr t.m.stale
    in
    (* a binary frame, escaped or not, answers the slot its id names; a
       v1 line answers the one slot in flight *)
    let handle_payload payload =
      if not binary then
        match Hashtbl.fold (fun tid _ _ -> Some tid) window None with
        | Some tid -> answer tid (Rraw payload)
        | None -> Obs.incr t.m.stale
      else
        match Codec.unescape_json payload with
        | Some (tid, line) -> answer tid (Rraw line)
        | None -> (
            match Codec.decode_reply payload with
            | Error m -> raise (Err (Protocol ("undecodable reply: " ^ m)))
            | Ok (Codec.Result { id; _ } as r) | Ok (Codec.Failed { id; _ } as r) ->
                answer id (Rbin r))
    in
    let nearest_deadline () =
      Hashtbl.fold (fun _ (_, _, dl) acc -> Float.min dl acc) window infinity
    in
    (* expire overdue slots in place: the retry gets a fresh id, the
       connection lives on.  An overdue v1 slot can only be resolved by
       tearing the connection down (its response is matched
       positionally). *)
    let expire () =
      let now = Obs.monotonic () in
      if not binary then begin
        if nearest_deadline () <= now then raise (Err Timeout)
      end
      else
        Hashtbl.filter_map_inplace
          (fun _ ((idx, _, dl) as slot) ->
            if now < dl then Some slot
            else begin
              Obs.incr t.m.timeouts;
              bump Timeout idx;
              if results.(idx) = None then Queue.add idx pending;
              None
            end)
          window
    in
    let rec go () =
      fill ();
      flush ();
      let rec drain () =
        match Frame.next c.reader with
        | Some p ->
            handle_payload p;
            fill ();
            drain ()
        | None -> ()
      in
      drain ();
      flush ();
      if Hashtbl.length window > 0 then begin
        let now = Obs.monotonic () in
        let dl = nearest_deadline () in
        if dl <= now then expire ()
        else (
          (* a read timeout here is a slot's deadline, not the
             connection's: expire the overdue slots in place *)
          try read_into c (dl -. now) with Err Timeout -> expire ());
        go ()
      end
      else if not (Queue.is_empty pending) then go ()
    in
    try go ()
    with e ->
      teardown (as_error e) (Hashtbl.fold (fun _ (idx, _, _) acc -> idx :: acc) window [])
  in

  let rec session () =
    if unresolved () then begin
      rebuild_pending ();
      (match ensure_ready t with
      | exception e ->
          (* could not even get a negotiated connection: everyone
             unfinished pays an attempt *)
          teardown (as_error e) (List.of_seq (Queue.to_seq pending))
      | c ->
          streak := 0;
          pump c);
      session ()
    end
  in
  session ();
  Array.map
    (function
      | Some r -> r
      | None -> Error (Connection "internal: request left unresolved"))
    results

(* ------------------------------------------------------------------ *)
(* public entry points                                                 *)
(* ------------------------------------------------------------------ *)

(* the binary template of a parsed request: only a hot op under the
   default solver mode that fits the codec's wire ranges.  Anything else
   rides the JSON escape, with exact JSON semantics — the binary layout
   carries no solver mode. *)
let template = function
  | Ok (want, query, Psph_engine.Engine.Auto) -> (
      try Some (Codec.encode_request { Codec.id = 0; want; query })
      with Invalid_argument _ -> None)
  | Ok _ | Error _ -> None

let prepare line obj parsed =
  { jline = Lazy.from_val line; jobj = Lazy.from_val obj; bin = lazy (template parsed) }

let prepare_line line =
  let jobj = lazy (Jsonl.of_string_opt line) in
  let bin =
    lazy
      (match Lazy.force jobj with
      | Some o -> template (Psph_engine.Serve.parse o)
      | None -> None)
  in
  { jline = Lazy.from_val line; jobj; bin }

let item req = { req; attempts = 0 }

(* the response line a v1 exchange would have produced: a binary reply
   is printed back under the caller's own id *)
let line_of it = function
  | Rraw s -> s
  | Rbin rep ->
      let orig = Option.bind (Lazy.force it.req.jobj) (Jsonl.member "id") in
      Codec.json_of_reply ~id:orig rep

(* a batch through the driver under one pipeline span *)
let drive_all ?on_latency t items =
  Obs.incr ~by:(Array.length items) t.m.requests;
  Obs.with_span t.m.pipeline_span (fun sp ->
      Obs.set_attr sp "count" (Jsonl.int (Array.length items));
      drive ?on_latency t items)

let pipeline ?on_latency t lines =
  locked t @@ fun () ->
  let items = Array.of_list (List.map (fun l -> item (prepare_line l)) lines) in
  let rs = drive_all ?on_latency t items in
  Array.to_list (Array.mapi (fun i r -> Result.map (line_of items.(i)) r) rs)

let eval_many ?on_latency t specs =
  locked t @@ fun () ->
  let items =
    Array.of_list
      (List.map
         (fun (want, query) ->
           let jline = lazy (Codec.json_line_of_query want query) in
           item
             {
               jline;
               jobj = lazy (Jsonl.of_string_opt (Lazy.force jline));
               bin = lazy (template (Ok (want, query, Psph_engine.Engine.Auto)));
             })
         specs)
  in
  Array.to_list
    (Array.map
       (function
         | Error e -> Error e
         | Ok (Rbin rep) -> Ok rep
         | Ok (Rraw s) -> (
             match Codec.reply_of_json s with
             | Some rep -> Ok rep
             | None -> Error (Protocol "unparseable response")))
       (drive_all ?on_latency t items))

(* one item through the driver, in its own span: on a v1 connection the
   span id rides out as "span_parent" (while tracing), so server spans
   nest under it *)
let request_prepared t req =
  locked t @@ fun () ->
  Obs.incr t.m.requests;
  Obs.with_span t.m.span_name (fun sp ->
      let it = item req in
      match (drive t [| it |]).(0) with
      | Ok v ->
          Obs.set_attr sp "attempts" (Jsonl.int (it.attempts + 1));
          Ok (line_of it v)
      | Error e ->
          Obs.set_attr sp "attempts" (Jsonl.int it.attempts);
          Obs.set_attr sp "error" (Jsonl.Str (error_message e));
          Error e)

let request t line = request_prepared t (prepare_line line)
