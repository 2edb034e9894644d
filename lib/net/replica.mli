(** The replicated memo tier: populate hints and cache warming.

    The router places each key on the first R distinct nodes of the
    {!Ring} (its {b owner set}); this module supplies everything the
    placement needs to actually converge to R warm copies:

    - {b populate hints}: a cache miss answered by one owner is
      asynchronously pushed to the others as a [populate] wire op
      carrying the finished answer in {!Psph_engine.Store} line format,
      so replicas warm without recomputing.  Hints ride a bounded queue
      drained by one background thread; a full queue drops the hint
      (counted) rather than backpressuring the request path.
    - {b cache warming}: {!warm_from} streams a peer's store snapshot
      (the [snapshot] wire op, chunked) into a local engine — how a
      restarted backend comes up warm ([psc serve --warm-from]).

    Metrics, under the [metrics] prefix (default [net.replica]):
    [populate] / [populate_drop] / [populate_fail] counters for the
    hint queue, [fallback_read] / [fallback_hit] counters for reads an
    owner other than the primary served (hit = the replica answered
    from cache: the warm-failover criterion), and [warm_entries] and
    the [warm_s] histogram for snapshot streaming.  See docs/NET.md
    "Replication". *)

type t

val create : ?metrics:string -> ?queue_cap:int -> unit -> t
(** [queue_cap] (default 1024) bounds the pending populate-hint queue. *)

val stop : t -> unit
(** Stop the worker, dropping undelivered hints. *)

val async : t -> (unit -> unit) -> bool
(** Enqueue a populate job for the worker; counts [populate], starts
    the worker on first use.  [false] — and a [populate_drop] count —
    when the queue is full or stopped.  [job] must handle its own
    errors (count failures with {!populate_failed}). *)

val fallback_read : t -> cached:bool -> unit
(** Count a read served by a non-primary owner. *)

val populate_failed : t -> unit

val entry_of_response :
  Psph_engine.Serve.reply -> (Psph_engine.Key.t * Psph_engine.Store.entry) option
(** The store entry carried by a successful serve response —
    [key] plus [betti] (connectivity taken from the response, or
    derived from the Betti vector when the op didn't ask for it).
    [None] for errors and responses without a Betti vector (a bare
    [connectivity] answer under-determines the entry). *)

val populate_line : (Psph_engine.Key.t * Psph_engine.Store.entry) list -> string
(** The [{"op":"populate","entries":[...]}] request carrying finished
    answers in store-line format. *)

val warm_from :
  ?metrics:string ->
  ?chunk:int ->
  ?timeout_ms:int ->
  ?retries:int ->
  Psph_engine.Engine.t ->
  Addr.t ->
  (int, string) result
(** Stream [peer]'s snapshot into the engine's memo cache
    ({!Psph_engine.Engine.warm}), [chunk] (default 512) entries per
    [snapshot] request, returning the number of entries loaded.  The
    snapshot is a best-effort copy of a live cache, not a consistent
    cut — exactly what cache warming wants.  Counts [warm_entries] and observes [warm_s] under
    [metrics] (default [net.replica]).  An unreachable peer is an
    [Error], not an exception — a backend should prefer starting cold
    to not starting. *)
