(** A TCP front end for a line handler: the {!Reactor}-based server that
    puts {!Psph_engine.Serve.handle_line} behind a socket.

    v2 architecture (PR 6): accepted connections are multiplexed by a
    small fixed pool of event-loop threads (two) instead
    of one thread per socket.  Each completed {!Frame} becomes a job —
    run inline on the loop when the handler is cheap, or handed to
    [dispatch] (in production {!Psph_engine.Engine.dispatch}, the
    engine's Domain pool) so loops never block on CPU-bound work.

    {b Wire protocol} (full specification in docs/NET.md, "Wire
    protocol v2"): a connection starts in JSON-lines mode with strictly
    ordered responses — byte-compatible with the v1 server, so old
    clients work unchanged.  A client may send
    [{"op":"hello","version":2,"codec":"binary"}] as a normal request;
    the server grants it (every server speaks binary), and from the next
    frame on the connection speaks the binary codec ({!Codec}) with
    responses keyed by request id and allowed out of order.  There is
    one pipelined mode: a hello asking for ["codec":"json"] is answered
    [{"ok":true,"version":2,"codec":"json","pipeline":false,...}] and
    the connection stays v1-ordered.

    Robustness mirrors v1: garbage framing, death mid-frame and the
    oversized-frame guard ({!Frame.max_frame}, which the hello reply
    reports) are answered (when possible) and closed —
    the server never crashes and other connections never notice.  An
    oversized header costs none of the requests that arrived complete
    ahead of it: they are answered first (on a JSON connection, in
    order before the framing error) and the connection closes once
    their responses are out.
    [max_conns] bounds the pool; excess connections wait in the kernel
    backlog.  [deadline_s] stays cooperative: a request whose handler
    ran past it is answered with a deadline error instead of its (late)
    result.  Shutdown is graceful: {!request_stop} stops accepting,
    in-flight requests complete and their responses are flushed, then
    {!serve} returns so the caller can flush the engine's store.

    Observability ([net.server.*] plus the reactor's [net.reactor.*],
    catalogued in docs/NET.md): v1's counters and latency histogram,
    plus [hello] (negotiations), [binary_requests] and [dispatched]
    (jobs sent to the dispatch pool).  JSON requests still re-root
    their handler span under the request's ["span_parent"] field, so
    loopback traces keep nesting [net.client.request -> serve.request]
    across the socket. *)

type handler = string -> string
(** Must never raise ({!Psph_engine.Serve.handle_line} already
    guarantees this); a raise is caught, answered as an internal error,
    and counted, but indicates a handler bug. *)

type t

val listen :
  ?metrics:string ->
  ?max_conns:int ->
  ?deadline_s:float ->
  ?bin_handler:handler ->
  ?dispatch:((unit -> unit) -> unit) ->
  handler:handler ->
  Addr.t ->
  (t, string) result
(** Bind and listen ([SO_REUSEADDR] set; port 0 lets the kernel pick —
    read it back with {!port}).  [metrics] prefixes the metric names
    (default ["net.server"]).  [max_conns] defaults to 64; the listen
    backlog is 64 and two event-loop threads serve the connections.
    [bin_handler] (typically
    [Codec.handle ~json:handler engine], the engine's direct path)
    answers binary connections; omitted, it is
    [Codec.of_json_handler handler], so a server with only a line
    handler (the router front) still grants binary.
    [dispatch] runs request jobs off the event loops (typically
    {!Psph_engine.Engine.dispatch}); omitted, handlers run inline on
    the loop — right for handlers that are fast or that block on their
    own I/O rarely. *)

val port : t -> int

val serve : t -> unit
(** Run the accept loop in the calling thread until {!request_stop},
    then drain: every in-flight request completes, its response is
    flushed, every connection closes.  Never raises. *)

val start : t -> unit
(** {!serve} on a background thread. *)

val request_stop : t -> unit
(** Flag the server as stopping and wake the accept loop.  Returns
    immediately; safe to call from a signal handler or another thread.
    Idempotent. *)

val stop : t -> unit
(** {!request_stop}, then wait until {!serve} has drained and returned. *)

val threaded_dispatch : unit -> (unit -> unit) -> unit
(** A [dispatch] for handlers that block on downstream I/O of their own
    (e.g. {!Router.route} waiting on a backend): runs each job on a
    fresh thread, up to 256 concurrently, inline beyond that — overload
    degrades to backpressure on the event loop rather than unbounded
    thread creation. *)
