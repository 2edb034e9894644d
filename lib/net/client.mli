(** A resilient client for the framed serve protocol, with optional
    request pipelining over the compact binary codec (wire protocol v2).

    {!request} keeps the classic contract: one frame out, one frame
    back, over a connection that is (re)established on demand, with
    failures classified:

    - {b retryable} — connect refused/unreachable, request timeout, the
      connection dying mid-frame (torn frame), and the peer resetting
      the connection mid-request ([ECONNRESET]/[EPIPE]/[ECONNABORTED] —
      what a crashed backend or a chaos proxy's reset mode surfaces).
      Retried up to [retries] times with exponential backoff plus full
      jitter.
    - {b fatal} — protocol errors (an oversized or undecodable frame
      from the server).  Never retried: the peer is speaking a different
      language, not having a bad moment.

    Server-side [{"ok":false,...}] responses are successful requests at
    this layer; interpreting them is the caller's business.

    {b Pipelining.}  A client runs in one of two modes.  A client
    created with [pipeline_depth > 1] or [codec `Binary] asks for the
    binary codec on each fresh connection (one [hello] frame), and every
    server grants it.  Any other answer means the grant was damaged in
    transit: the attempt fails with a retryable
    [Connection "hello not granted: ..."], and the retry renegotiates
    on a fresh connection.  A plain client (the defaults) never sends a
    hello and speaks v1.  Both modes run through one pump, with one
    ordering rule each.  A v1
    connection is a window of one slot: each request is sent as its
    plain line and answered by the next response.  On a binary
    connection {!pipeline} keeps up to [pipeline_depth] requests in
    flight and matches every reply by transport request id.  Hot query
    ops ([psph], [betti], [connectivity], [model-complex]), read by
    {!Psph_engine.Serve.parse}, are translated through {!Codec};
    everything else rides the JSON escape under its own transport id:
    other ops, malformed hot ops, hot ops that overflow the codec's wire
    ranges, and hot ops naming a non-[auto] ["solver"] (the binary
    layout carries no solver mode).  Each reply is printed back under
    the caller's own id, so callers see exactly the bytes a v1 exchange
    would have produced.

    A timed-out request on a binary connection, escaped or not, does not
    tear down the connection: the retry flies with a fresh id, and the
    late response, when it arrives, matches no in-flight id and is
    dropped (counted as [net.client.stale_response]) — ids make late
    responses harmless, which is the whole point of keying the window on
    them.  The client keeps no record of timed-out ids, so a server that
    times out forever costs no client memory.  On a v1 connection an
    overdue request still tears the connection down.

    Observability ([net.client.*]): request/error/retry/reconnect/
    timeout/pipelined/stale_response counters and a latency histogram;
    {!request} runs in a [net.client.request] span whose id, on a v1
    connection, is injected into the outgoing JSON as ["span_parent"] —
    the bridge that makes loopback traces nest across the socket
    (injection only happens while a trace sink is live, so production
    requests go out byte-untouched).  A router hop is a
    {!request_prepared}, so it runs in that span too.  {!pipeline} runs
    in a single [net.client.pipeline] span, whose id is the one a v1
    connection injects; binary requests carry no span parent. *)

type error =
  | Timeout
  | Connection of string  (** retryable transport failure *)
  | Protocol of string  (** fatal: the peer broke the framing contract *)

val is_retryable : error -> bool

val error_message : error -> string

type t

val create :
  ?metrics:string ->
  ?timeout_ms:int ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?codec:[ `Json | `Binary ] ->
  ?pipeline_depth:int ->
  Addr.t ->
  t
(** No I/O happens here; the first request connects.  Defaults:
    [timeout_ms] 5000 (per attempt, covering connect + send + receive),
    [retries] 3 (so up to 4 attempts), [backoff_ms] 50 doubling per
    retry up to a fixed 2000 ms cap with full jitter, [codec] [`Json],
    [pipeline_depth] 1.  With the defaults the client is byte-for-byte
    the v1 client — no hello, no ids.  [codec `Binary] negotiates the
    binary codec even at depth 1, and [pipeline_depth > 1] implies it. *)

val request : t -> string -> (string, error) result
(** Send one line, wait for the response line.  Serialized per client
    (one caller at a time).  The same driver as [pipeline t [line]],
    so responses are byte-identical either way.  The returned error is
    the last attempt's. *)

val pipeline :
  ?on_latency:(int -> float -> unit) ->
  t -> string list -> (string, error) result list
(** Send many request lines keeping up to [pipeline_depth] in flight,
    returning responses in request order (results arrive out of order
    on the wire; the id window reorders them).  Each line is retried
    independently under the client's retry budget; a connection-level
    failure costs every unfinished line one attempt.  [on_latency i s]
    reports each successful line's send-to-receive latency (seconds) —
    the bench uses it for percentiles.  On a binary connection the
    requests of one call may run concurrently on the server, escaped
    ones included (none is a fence), so the call equals sequential
    {!request}s when its requests do not depend on each other. *)

type prepared
(** A request line together with its JSON parse and
    {!Psph_engine.Serve.parse} result. *)

val prepare :
  string ->
  Psph_obs.Jsonl.t option ->
  ( Psph_engine.Serve.want * Psph_engine.Serve.query * Psph_engine.Engine.mode,
    string )
  result ->
  prepared
(** [prepare line obj parsed] for a caller that has already parsed
    [line] (to [obj], [None] when it is not JSON) and read it with
    {!Psph_engine.Serve.parse} — how {!Router} forwards a line it parsed
    once.  The arguments must describe [line]. *)

val request_prepared : t -> prepared -> (string, error) result
(** {!request} for a line already {!prepare}d: the same driver, in the
    same [net.client.request] span. *)

val eval_many :
  ?on_latency:(int -> float -> unit) ->
  t ->
  (Codec.want * Codec.query) list ->
  (Codec.reply, error) result list
(** {!pipeline} for structured hot queries, skipping JSON entirely on a
    binary connection: queries are encoded straight through {!Codec}
    and replies decoded back — the no-allocation-waste path the bench
    measures.  A plain client (v1) sends them as their
    {!Psph_engine.Serve.json_line_of_query} lines. *)

val close : t -> unit
(** Drop the connection, if any.  The client stays usable: the next
    request reconnects (and renegotiates). *)
