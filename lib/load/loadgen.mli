(** Open-loop load generator for the framed serve protocol (wire v2).

    [conns] worker threads each own one pipelined {!Psph_net.Client}
    (binary codec, which every {!Psph_net.Server} grants — a router
    front included) and fire requests on a
    Poisson arrival schedule drawn from a seeded RNG — {b open-loop}:
    the schedule is independent of how fast the server answers, and
    each request's latency is measured from its {e intended} arrival
    time to its response (the wrk2-style coordinated-omission
    correction), so a stalled server shows up as large latencies, not
    as a silently slowed generator.

    The key space is drawn from the model registry's spec space: psph
    shapes, every registered model at a small default spec, plus salted
    facet queries padding out [keyspace] distinct keys.  Key choice is
    zipf([zipf])-skewed over that table ([zipf = 0.] is uniform) —
    skew concentrated on few keys stresses one shard of a routed
    cluster.

    Outcomes are taxonomized exhaustively — ok (with the server's
    cached flag), server-side error answers, and transport errors
    (timeout / connection / protocol) — and counted under
    [<metrics>.*] (default [load.*]) plus a [latency_s] histogram.
    [stats.sent = ok + server + transport] by construction; the soak
    harness turns that arithmetic into the "no silent loss"
    invariant. *)

open Psph_net

type config = {
  rate : float;  (** total target req/s across all connections *)
  conns : int;
  pipeline_depth : int;
  duration_s : float;
  keyspace : int;  (** distinct keys in the query table *)
  zipf : float;  (** skew exponent; 0. = uniform *)
  seed : int;
  timeout_ms : int;  (** per-attempt client timeout *)
  retries : int;
}

type stats = {
  sent : int;
  ok : int;
  cached : int;  (** ok answers the server marked as cache hits *)
  server_errors : (string * int) list;  (** error message -> count *)
  timeouts : int;
  conn_errors : int;
  proto_errors : int;
  unresolved : int;
      (** connection errors flagged "internal:" — a client accounting
          bug, not a network condition; soak asserts zero *)
  latencies : float array;  (** corrected seconds, ok requests only *)
  wall_s : float;
}

val completed : stats -> int
(** [ok + server_errors + timeouts + conn_errors + proto_errors] — the
    requests that ended in a taxonomy bucket.  No silent loss iff this
    equals [sent]. *)

val queries : keyspace:int -> (Codec.query) array
(** The registry-derived key table, deterministic for a given
    [keyspace] — exposed for tests. *)

val zipf_cdf : k:int -> s:float -> float array
(** Cumulative zipf([s]) table over ranks [0..k-1]; [s = 0.] is
    uniform.  Exposed for tests. *)

val sample_rank : float array -> Random.State.t -> int
(** Draw a rank from a {!zipf_cdf} table — deterministic for a given
    RNG state. *)

val percentile : float array -> float -> float
(** [percentile lats p] with [p] in [0..100]; 0. on an empty array. *)

val run : ?metrics:string -> config -> Addr.t -> stats
(** Run the full schedule against one address and block until every
    worker drains.  Wall time is [duration_s] plus however long the
    final in-flight requests take to resolve. *)
