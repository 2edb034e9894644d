(** Consistent-hash routing of serve requests across N backends, with
    an R-replicated memo tier on top (see docs/NET.md "Replication").

    The router is itself a serve-protocol peer: put {!route} behind a
    {!Server} and clients talk to it exactly as they would to a single
    backend.  Each request is forwarded to a backend chosen by
    consistent hashing ({!Ring}) on the request's {b shard key}, read
    from its {!Psph_engine.Serve.parse} — the backends' own grammar:

    - [betti]/[connectivity] over facets: the content address
      ({!Psph_engine.Key}) of the complex the facets denote — the same
      key the backend's memo store will use, so repeats of a shape
      always land on the backend whose cache is warm for it;
    - [psph]/[model-complex], and [connectivity] over a model or
      [n]+[values]: the normalized-spec encoding (the model's own
      {!Pseudosphere.Model_complex.encode}; [psph:n:values]), which is
      cheaper than building the complex and canonicalizes exactly as
      the engine's spec memo does.  The ["solver"] mode does not move
      placement;
    - everything else ([batch], [stats], requests the backends would
      refuse, ...): no affinity — spread round-robin over live
      backends.

    {b Replication.}  With [replication = R > 1] a key's {e owner set}
    is the first R distinct backends of its ring walk.  A cache miss
    answered by one owner is pushed to the others as an async
    [populate] hint carrying the finished answer, so hot keys converge
    to R warm copies; a dead primary's reads fail over — in ring
    order, which is exactly owner order — onto those warm replicas.
    Such replica-served reads are counted
    ([net.router.replica.fallback_read]/[fallback_hit]).
    [{"op":"cluster"}] reports the replication factor and per-backend
    liveness.

    {b Error contract.}  A request tries backends in ring order, live
    ones first and dead ones as a last resort: a retryable failure marks
    the backend dead and fails over to the next (counted once, in
    [net.router.failover], when the request reaches its second
    backend); a fatal protocol error is request-specific, so it
    is answered as [{"ok":false,"error":...}] without touching backend
    health; when nothing answers, the router degrades to
    [{"ok":false,"error":"no backend"}] (id echoed) — and while the
    health prober is running the degraded answer carries
    ["retry_after_ms"] (the probe period), because the outage is then a
    transient the prober is actively working to clear.  The hint is
    JSON-only: a binary error reply carries just the message.  A background
    health checker probes every backend with [{"op":"models"}] and
    revives dead ones.

    Observability ([net.router.*]): request/forwarded/failover/
    no_backend counters, a backends-up gauge, per-request latency, a
    [net.router.request] span per routed request, backend_up/down
    events, and the [net.router.replica.*] family from {!Replica}. *)

type t

val create :
  ?metrics:string ->
  ?replication:int ->
  ?timeout_ms:int ->
  ?retries:int ->
  ?check_period_ms:int ->
  Addr.t list ->
  t
(** No I/O; backends are assumed alive until a probe or request says
    otherwise.  The backend list is the router's whole membership: it
    never changes.  [replication] (default 1, clamped to the backend
    count) replicas per key; [timeout_ms]/[retries] configure the
    per-backend clients (retries default 1 — the ring-level failover is
    the real retry);
    [check_period_ms] (default 1000) spaces health probes.  Backend
    links speak the binary codec one request at a time (see
    {!Client}): concurrent requests to one backend take turns on its
    link.
    @raise Invalid_argument on an empty or duplicate backend list. *)

val shard_key : string -> string option
(** The shard string of a request line, [None] when the request has no
    key affinity (batch/stats/... or unparseable). *)

val preference : t -> string -> int list
(** Backend indexes in ring (failover) order for a request line — the
    first {e R} entries are the owner set.
    Pure ring arithmetic — exposed for tests; keyless lines rotate. *)

val backends : t -> (Addr.t * bool) list
(** Address and liveness of each backend, in index order. *)

val route : t -> string -> string
(** Forward one request line, failing over as needed; the degraded
    answer if no backend responds.  Never raises — this is the
    {!Server.handler} of [psc route].  [cluster] is answered by the
    router itself (see above); every other op, an unknown one included,
    is forwarded.  The line is parsed once — admin ops and placement
    read that parse, and the backend link sends it without re-parsing —
    and a backend's answer at most once (for populate hints and
    fallback-read accounting).

    Every forwarded request, a [batch] included, is forwarded whole
    and takes one walk down its preference order, as the error
    contract above describes.  A [batch] has no shard key, so it goes
    round-robin and its answer is that backend's own batch answer. *)

val start_health_checks : t -> unit
(** Spawn the background prober (idempotent). *)

val stop : t -> unit
(** Stop the prober and the populate worker, and close every backend
    connection. *)
