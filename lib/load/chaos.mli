(** Fault-injecting TCP man-in-the-middle ("chaos proxy").

    Sits between a client and a server — in the soak harness, between
    the {!Psph_net.Router} and each backend — forwarding bytes in both
    directions while injecting faults from a {b seeded, reproducible
    schedule}: each connection's fault sequence is drawn from an RNG
    seeded with [(seed, connection_index, direction)], so a printed seed
    replays the same per-connection schedule regardless of thread
    interleaving.

    Per-chunk faults (probabilities in parts-per-thousand, active only
    while {!set_enabled} is on):

    - [reset_ppc] — close both sides with [SO_LINGER 0] so the kernel
      sends RST: peers see [ECONNRESET] mid-request.
    - [torn_ppc] — forward a strict prefix of the chunk, then reset:
      the receiver's frame reader is left mid-frame.
    - [corrupt_ppc] — XOR one byte with a nonzero mask before
      forwarding.
    - [delay_ms = Some (lo, hi)] — sleep a uniform [lo..hi] ms before
      forwarding each chunk.
    - [throttle_bps] — pace each direction to a byte budget per second.

    Partitions are a mode, not a probability: {!Full} freezes both
    directions, {!Half_open} freezes only server-to-client (requests
    arrive, responses vanish).  Frozen chunks are {e held} and delivered
    on heal, so the byte stream stays intact and the peer experiences
    the partition as unbounded latency — timeouts, not parse errors.
    New connections are accepted during a partition (connect succeeding
    while data goes nowhere is what distinguishes a partition from a
    dead host).

    Everything injected is counted under [chaos.*]: [conns], [chunks],
    [bytes], [resets], [torn], [corrupted], [delayed], [throttled],
    [frozen], [upstream_down]. *)

open Psph_net

type faults = {
  delay_ms : (int * int) option;
  throttle_bps : int option;
  reset_ppc : int;
  torn_ppc : int;
  corrupt_ppc : int;
}

val no_faults : faults
(** Everything off — the proxy is a transparent TCP relay. *)

type partition = No_partition | Half_open | Full

type t

val create :
  seed:int ->
  faults:faults ->
  upstream:Addr.t ->
  Addr.t ->
  (t, string) result
(** [create ~seed ~faults ~upstream listen] binds [listen] (port 0 lets
    the kernel pick — read it back with {!addr}; the listen backlog is
    64) and starts the accept loop on a background thread.  Faults
    start {e disabled}; {!set_enabled} turns the schedule on.  If the upstream refuses a
    connection the client side is reset and [upstream_down] counted. *)

val addr : t -> Addr.t
(** The listen address with the bound port filled in — what a router
    should be pointed at. *)

val set_enabled : t -> bool -> unit

val set_partition : t -> partition -> unit

val stop : t -> unit
(** Close the listener, tear down every connection (not counted as
    injected resets) and join all proxy threads.  Idempotent. *)
