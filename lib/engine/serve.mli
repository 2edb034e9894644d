(** The [psc serve] JSON-lines front end, and the one owner of the hot-op
    request/answer model.

    One request object per input line, one response object per output
    line.  Ops: [betti], [connectivity], [psph], [model-complex], [batch]
    (members evaluated in order), [models], [stats], [metrics]
    (the full {!Psph_obs.Obs.snapshot_json} of counters, gauges,
    histograms and span totals; [stats] carries the same snapshot in a
    "metrics" field), and the replication op [populate] (load finished
    answers in {!Store} line format into the memo cache) that the
    router's populate hints ride (docs/NET.md).  The full wire protocol
    is specified in docs/ENGINE.md and docs/OBSERVABILITY.md.

    The four hot ops ([betti]/[connectivity]/[psph]/[model-complex]) are
    read by {!parse}, answered by {!answer} and printed by
    {!json_of_reply} — here and nowhere else.  The binary codec
    ([Psph_net.Codec]) only moves these values as bytes, and the client
    and router call {!parse} instead of re-deriving the grammar, so a
    JSON answer and its binary twin are the same value printed once.

    Every request runs in a [serve.request] span (attrs: a process-wide
    request counter and the op name) and is timed into a per-op
    [serve.op.<op>] histogram — one per op listed above, [invalid] for a
    line without an op, and a shared [serve.op.unknown] for every other
    op name, so clients cannot grow the metric registry.

    Malformed requests — and any unexpected exception a handler raises —
    produce [{"ok":false,"error":...}] responses, echoing the request's
    ["id"] when one was parsed, and the loop continues. *)

open Psph_obs

(** {1 The hot-op model} *)

type want = Both | Betti | Connectivity
(** Which measurements a query asks for. *)

type query =
  | Psph of { n : int; values : int }
  | Facets of string list  (** {!Psph_topology.Complex_io} simplex strings *)
  | Model of { model : string; spec : Pseudosphere.Model_complex.spec }

type reply =
  | Result of {
      id : int;  (** transport id (binary codec); 0 elsewhere *)
      key : string;  (** canonical content key, lowercase hex *)
      cached : bool;
      betti : int array option;
      connectivity : int option;
      solver : Engine.provenance option;
          (** which solver tier answered; every answer {!answer} gives
              and {!reply_of_json} accepts carries it *)
    }
  | Failed of { id : int; message : string }

val parse : Jsonl.t -> (want * query * Engine.mode, string) result
(** Read a hot-op request: its op and fields, with the psc flag defaults
    ([f=1, k=1, p=2, r=1]), a model's declared extension fields (ints or
    enum names), and the ["solver"] mode (default [Auto]).  Covers the
    [connectivity] forms over [facets], [model] and [n]+[values].  The
    model name is resolved here (its extension fields depend on it);
    facet strings are resolved by {!answer}.  [Error] carries the
    message a serve response would (e.g. [unknown op "stats"]). *)

val spec_of_query : query -> Engine.spec
(** The engine spec a query denotes, facets parsed and the model name
    resolved.
    @raise Failure ["bad facet: ..."] or ["unknown model ... (available:
    ...)"]. *)

val answer : ?mode:Engine.mode -> Engine.t -> want -> query -> reply
(** Evaluate a query: [Connectivity] through {!Engine.eval_conn} (the
    tiered solver), the others through {!Engine.eval}.  Never raises:
    a bad facet, an unknown model, invalid parameters or a failed check
    come back as [Failed].  The reply's [id] is 0. *)

val json_of_reply : id:Jsonl.t option -> reply -> string
(** The serve response line of a reply, under the request's ["id"]
    ([None] omits it): exactly what {!handle_line} prints. *)

val reply_of_json : string -> reply option
(** Parse a serve response line back into a {!reply} ([None] when the
    line is not one, including an ["ok":true] reply whose ["solver"] is
    missing or names no known tier).  [id] is the response's "id"
    member when it is an integer in [0, 2{^32}-1], else 0. *)

val json_line_of_query : ?id:Jsonl.t -> want -> query -> string
(** The JSON request line a query denotes; {!parse} reads it back to the
    same query.  [Connectivity] over [Psph]/[Model] is the
    [connectivity] form.  The combinations {!parse} never produces
    ([Betti] over [Psph]/[Model], [Both] over [Facets]) map to the
    nearest op, which answers a superset/subset of the fields. *)

(** {1 The response envelope} *)

val with_id : Jsonl.t -> (string * Jsonl.t) list -> (string * Jsonl.t) list
(** Prepend the request's ["id"] member, if it has one. *)

val error_response :
  ?extra:(string * Jsonl.t) list -> ?req:Jsonl.t -> string -> Jsonl.t
(** [{"id"?,"ok":false,"error":msg, extra...}], echoing [req]'s ["id"]. *)

val error_line : ?orig:string -> string -> string
(** {!error_response} as a line, echoing the ["id"] of the request line
    [orig] when it parses far enough to have one. *)

(** {1 Serving} *)

val handle_line : Engine.t -> string -> string
(** Process one request line, returning the response line (no trailing
    newline).  Never raises.  This is the transport-independent core:
    {!run} drives it from stdio and [Psph_net.Server] drives the same
    function over TCP (see docs/NET.md). *)

val run : Engine.t -> in_channel -> out_channel -> unit
(** Serve until EOF (responses flushed per line), then {!Engine.flush}. *)
