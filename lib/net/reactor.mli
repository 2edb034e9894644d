(** The event-loop core of the v2 server, typed for its one caller,
    {!Server}: a small fixed pool of loop
    threads multiplexing many nonblocking sockets with [Unix.select].

    Each accepted descriptor is pinned to one loop (round-robin), which
    owns all reads, writes and the final close for it; a per-connection
    {!Frame.reader} accumulates whatever the socket delivers and
    [on_frame] fires for every completed payload {e on the loop thread}.
    Handlers must therefore not block — CPU-bound work belongs on the
    engine's pool (see {!Server}'s [dispatch]) — but they may call
    {!send} and {!close} freely, from any thread: output is buffered per
    connection and flushed by the owning loop, which a cross-thread send
    wakes through a self-pipe.

    The connection limit, protocol semantics, and response ordering all
    live a layer up in {!Server}; the reactor only moves bytes.  Its own
    health is visible as [<prefix>.loops] / [<prefix>.conns] gauges, a
    [<prefix>.wakeups] counter (cross-thread pokes), a [<prefix>.frames]
    counter and a [<prefix>.frames_per_read] histogram — the last being
    the pipelining-efficiency signal: how many requests each [read]
    syscall carried (docs/NET.md catalogues all of them). *)

type 'u t
(** A reactor whose connections each carry one ['u] of caller state
    ({!Server} keeps its per-connection protocol record there). *)

type 'u conn

type failure =
  | Oversized of int
      (** the peer advertised a frame over {!Frame.max_frame}; the byte
          stream is desynced and the connection must be closed after
          answering.  Frames completed ahead of the bad header are
          delivered to [on_frame] first. *)
  | Torn  (** the peer hung up mid-frame *)

val create :
  metrics:string ->
  on_frame:('u conn -> string -> unit) ->
  on_failure:('u conn -> failure -> unit) ->
  on_eof:('u conn -> unit) ->
  on_close:('u conn -> unit) ->
  'u t
(** Two event-loop threads, started by {!start}; [metrics] prefixes the
    reactor's metric names.  [on_eof] fires when the peer stops sending
    (it may have only shut down its write side, so the caller decides
    when to {!close}).  [on_close] fires exactly once per connection,
    after its descriptor is closed. *)

val start : 'u t -> unit

val add : 'u t -> user:'u -> Unix.file_descr -> 'u conn
(** Hand a descriptor to the reactor (it becomes nonblocking and, for
    TCP sockets, gets [TCP_NODELAY]).  [user] is attached before the
    loop can possibly deliver a frame. *)

val user : 'u conn -> 'u

val send : 'u conn -> string -> unit
(** Queue bytes (already framed) for the connection; a no-op once the
    connection is closing or closed.  Thread-safe. *)

val close : 'u conn -> unit
(** Graceful close: stop reading, flush queued output, then close the
    descriptor.  Thread-safe, idempotent. *)

val active : 'u t -> int
(** Connections currently registered (including those still flushing). *)

val stop_reading : 'u t -> unit
(** Stop issuing reads on every connection — frames already buffered
    still deliver; used by the server's drain. *)

val stop : 'u t -> unit
(** Flush remaining output (bounded effort), close every connection and
    join the loop threads.  Further {!add}s are rejected with
    [Invalid_argument]. *)
