(** One observability substrate for every layer of the system.

    Before this module existed each layer measured itself differently:
    the LRU kept private hit/miss counters, the worker pool had none, the
    benches hand-rolled wall-clock timing, and a serve request fanning
    rank jobs across domains was opaque.  [Obs] replaces all of that with
    three primitives:

    - {b Metrics}: named counters, gauges and histograms in one global
      registry.  Getting a metric by name is get-or-create, so two
      modules naming the same metric share it; a name is the identity.
      Counters and gauges are atomic (safe to touch from worker domains);
      histograms serialize under a tiny per-histogram lock.

    - {b Spans}: named time intervals with parent/child nesting (wall
      clock for the trace timestamp, monotonic clock for the duration).
      The current span is ambient, per-thread state; {!with_span} opens a
      child of whatever span is current, and {!with_parent} re-roots a
      computation under an explicit parent id so a job submitted to a
      worker pool stays attached to the span that enqueued it.  Every
      span updates a per-name aggregate (count + total seconds)
      regardless of sink, so snapshots can report span activity even
      when no trace is being written.

    - {b Events}: point-in-time marks attached to the current span.
      Events are trace-only: with the {!Null} sink they cost one branch.

    Completed spans and events stream to one pluggable {b sink}: [Null]
    (drop; the default), [Memory] (in-process buffer for tests), or
    [Channel] (a JSONL writer — one {!Jsonl} document per record).
    The metric names used by the library layers are catalogued in
    docs/OBSERVABILITY.md. *)

type attrs = (string * Jsonl.t) list
(** Span/event attributes: JSON-valued, so they serialize to the trace
    without further encoding. *)

val now : unit -> float
(** The wall clock ({!Unix.gettimeofday}), in seconds.  Used only for
    trace timestamps; durations are measured with {!monotonic} so a
    wall-clock step can never produce a negative span or histogram
    observation. *)

val monotonic : unit -> float
(** [CLOCK_MONOTONIC], in seconds since an arbitrary origin.  The clock
    every duration in this module is measured on; comparable only within
    one process. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Get or create the counter registered under this name. *)

val incr : ?by:int -> counter -> unit
(** Atomic increment ([by] defaults to 1). *)

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge

val gauge_set : gauge -> float -> unit

val gauge_add : gauge -> float -> unit
(** Atomic add (CAS loop); use negative deltas to decrement. *)

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

type histogram_stats = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
}

val histogram : string -> histogram

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration in seconds (also
    on exception). *)

val histogram_stats : histogram -> histogram_stats

(** {1 Spans} *)

type span

val with_span : ?attrs:attrs -> string -> (span -> 'a) -> 'a
(** [with_span name f] opens a span as a child of the current one (if
    any), makes it current for the extent of [f], then closes it:
    updates the per-name aggregate and emits a record to the sink.  The
    span is closed (and the previous current span restored) even when
    [f] raises. *)

val set_attr : span -> string -> Jsonl.t -> unit
(** Attach an attribute to a live span (e.g. a cache key discovered
    mid-flight). *)

val current_span_id : unit -> int option
(** The ambient span id on this domain, for handing to {!with_parent}
    across a domain or queue boundary. *)

val with_parent : int option -> (unit -> 'a) -> 'a
(** Run the thunk with the ambient parent re-rooted to the given span
    id: the bridge that keeps a pool job nested under the span that
    dispatched it. *)

type span_stats = { spans : int; total_s : float }

val span_stats : string -> span_stats
(** Aggregate for a span name; zeros if the name was never opened. *)

(** {1 Events} *)

val event : ?attrs:attrs -> string -> unit
(** Emit a point-in-time record attached to the current span.  A no-op
    (one branch) under the [Null] sink. *)

(** {1 Sinks} *)

type record =
  | Span_record of {
      name : string;
      id : int;
      parent : int option;
      start : float;
      stop : float;
      attrs : attrs;
    }
  | Event_record of {
      name : string;
      time : float;
      span : int option;
      attrs : attrs;
    }

type sink = Null | Memory | Channel of out_channel

val set_sink : sink -> unit

val current_sink : unit -> sink

val records : unit -> record list
(** Records captured while the [Memory] sink was active, oldest first. *)

val clear_records : unit -> unit

val record_to_json : record -> Jsonl.t
(** The JSONL trace schema (see docs/OBSERVABILITY.md): spans are
    [{"t":"span","name":..,"id":..,"parent":..,"start_s":..,"dur_s":..,
    "attrs":{..}}], events [{"t":"event","name":..,"time_s":..,
    "span":..,"attrs":{..}}]. *)

val with_trace_file : string -> (unit -> 'a) -> 'a
(** Write a JSONL trace of the thunk to the given path: installs a
    [Channel] sink for its extent, then restores the previous sink and
    closes the file (also on exception).  Backs [psc --trace FILE]. *)

(** {1 Snapshot} *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
  span_totals : (string * span_stats) list;
}
(** Everything the registry knows, each section sorted by name. *)

val snapshot : unit -> snapshot

val snapshot_json : unit -> Jsonl.t
(** The snapshot as one JSON object
    [{"counters":{..},"gauges":{..},"histograms":{..},"spans":{..}}] —
    the payload of the serve [metrics] wire op and of
    [psc serve --metrics]. *)

val reset : unit -> unit
(** Zero every registered metric and span aggregate and clear the memory
    buffer.  Registrations (and handles already held by callers) stay
    valid. *)
