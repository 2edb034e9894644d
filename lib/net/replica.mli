(** The replicated memo tier: populate hints.

    The router places each key on the first R distinct nodes of the
    {!Ring} (its {b owner set}); this module supplies the machinery
    that converges the placement to R warm copies.  A cache miss
    answered by one owner is asynchronously pushed to the others as a
    [populate] wire op carrying the finished answer in
    {!Psph_engine.Store} line format, so replicas warm without
    recomputing.  Hints ride a bounded queue drained by one background
    thread; a full queue drops the hint (counted) rather than
    backpressuring the request path.

    Metrics, under the [metrics] prefix (default [net.replica]):
    [populate] / [populate_drop] / [populate_fail] counters for the
    hint queue, [fallback_read] / [fallback_hit] counters for reads an
    owner other than the primary served (hit = the replica answered
    from cache: the warm-failover criterion).  See docs/NET.md
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
