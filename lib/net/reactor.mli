(** The event-loop core of the v2 server: a small fixed pool of loop
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

type t

type conn

type user = ..
(** One slot of caller state per connection ({!Server} hangs its
    per-connection protocol record here); an extensible variant so the
    reactor stays ignorant of the layer above. *)

type user += No_user

type failure =
  | Oversized of int
      (** the peer advertised a frame over [max_frame]; the byte stream
          is desynced and the connection must be closed after answering.
          Frames completed ahead of the bad header are delivered to
          [on_frame] first. *)
  | Torn  (** the peer hung up mid-frame *)

val create :
  ?metrics:string ->
  ?max_frame:int ->
  on_frame:(conn -> string -> unit) ->
  ?on_failure:(conn -> failure -> unit) ->
  ?on_eof:(conn -> unit) ->
  ?on_close:(conn -> unit) ->
  unit ->
  t
(** Two event-loop threads, started by {!start}.
    [on_eof] fires when the peer stops sending (default: {!close} the
    connection — override to finish in-flight responses first; the peer
    may have only shut down its write side).  [on_close] fires exactly
    once per connection, after its descriptor is closed. *)

val start : t -> unit

val add : t -> ?user:user -> Unix.file_descr -> conn
(** Hand a descriptor to the reactor (it becomes nonblocking and, for
    TCP sockets, gets [TCP_NODELAY]).  [user] is attached before the
    loop can possibly deliver a frame. *)

val user : conn -> user

val set_user : conn -> user -> unit

val send : conn -> string -> unit
(** Queue bytes (already framed) for the connection; a no-op once the
    connection is closing or closed.  Thread-safe. *)

val close : conn -> unit
(** Graceful close: stop reading, flush queued output, then close the
    descriptor.  Thread-safe, idempotent. *)

val active : t -> int
(** Connections currently registered (including those still flushing). *)

val stop_reading : t -> unit
(** Stop issuing reads on every connection — frames already buffered
    still deliver; used by the server's drain. *)

val stop : t -> unit
(** Flush remaining output (bounded effort), close every connection and
    join the loop threads.  Further {!add}s are rejected with
    [Invalid_argument]. *)
