(** A fixed-size [Domain] worker pool that runs whole requests.

    Workers are spawned eagerly at {!create} and live until {!shutdown}.
    {!dispatch} is fire-and-forget: a job carries its own completion path
    (the network server's job writes the response), so nothing is
    returned and nobody waits.  A pool of zero domains, or one that has
    been shut down, runs the job inline in the caller.

    All accounting flows through the {!Psph_obs.Obs} registry under the
    [metrics] name prefix: counters [<metrics>.jobs] (dequeued) and
    [<metrics>.inline], gauges [<metrics>.queue_depth] and
    [<metrics>.busy] (worker utilization), histogram [<metrics>.job_s].
    Each queued job runs in a [<metrics>.job] span parented to the span
    current at dispatch time, so traces stay nested across domains. *)

type t

val create : ?metrics:string -> domains:int -> unit -> t
(** Spawn [max 0 domains] worker domains.  [metrics] (default ["pool"])
    prefixes the registered metric and span names. *)

val size : t -> int
(** Number of worker domains. *)

val jobs_run : t -> int
(** Current value of the shared [<metrics>.jobs] counter (jobs dequeued
    by workers; inline runs are counted under [<metrics>.inline]). *)

val dispatch : t -> (unit -> unit) -> unit
(** Queue [f] for a worker, or run it inline (see above).  [f] must
    handle its own errors: an exception it raises on a worker is
    dropped, and the worker carries on with the next job (inline, it
    reaches the caller). *)

val shutdown : t -> unit
(** Drain the queue, stop and join every worker.  Idempotent. *)
