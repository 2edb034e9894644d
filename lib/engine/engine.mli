(** The query engine: canonicalized, cached topology queries.

    Millions of pseudosphere/protocol-complex questions repeat structure —
    the same [psi(S^m; U)] shapes recur across models, rounds and failure
    budgets — so evaluation goes content-address first: build the complex,
    derive its canonical {!Key.t}, and only compute homology on a miss.
    A query is evaluated start to finish in the calling thread; the
    engine's {!Pool.t} of worker domains only runs whole requests handed
    to it by {!dispatch} (the network server's way off its event loops).
    Every {!eval} runs in an [engine.query] span carrying the
    content key and hit/miss outcome (see docs/OBSERVABILITY.md).  See
    docs/ENGINE.md for policies and the wire protocol. *)

open Psph_topology
open Pseudosphere

type spec =
  | Explicit of Complex.t  (** an already-built complex *)
  | Psph of { n : int; values : int }
      (** [psi(P^n; {0..values-1})] with the paper's plain labelling *)
  | Model of { model : string; params : Model_complex.spec }
      (** the [params.r]-round protocol complex of the named registered
          model over the standard input simplex ([i mod 2] inputs), as in
          the [psc] model subcommands.  The model's own [normalize]
          decides which parameters matter, so any model registered in
          {!Model_complex} is reachable — and correctly cache-keyed —
          with no engine edits. *)

type answer = { betti : int array; connectivity : int }

type tier = Cached | Symbolic | Numeric
(** Which solver tier produced an answer: a warm cache slot, a symbolic
    derivation ({!Pseudosphere.Solver} — Theorem 2 + Corollary 6 or a
    closed-form round lemma, no complex realized), or numeric Bitmat
    elimination over the built complex. *)

type provenance = {
  tier : tier;
  rule : string option;
      (** symbolic: the rule that concluded the bound (e.g. ["Theorem 2 +
          Corollary 6"], ["Lemma 16/17"]) *)
  steps : int option;  (** symbolic: derivation size *)
  cells_removed : int option;
      (** Unused: always [None].  It counted simplices eliminated by a
          Morse precollapse, which the engine no longer runs; it is neither
          rendered nor encoded.  It remains only so that record literals
          naming it still compile. *)
  checked : int option;
      (** {!mode} [Check]: the symbolic lower bound the numeric answer was
          verified against *)
}

type mode = Auto | Symbolic_only | Numeric_only | Check
(** Solver policy for a query.  [Auto] prefers a warm cache slot, then the
    symbolic tier (connectivity only), then numeric elimination.
    [Symbolic_only]/[Numeric_only] force one tier.  [Check] computes
    numerically and asserts the symbolic {e lower bound} holds
    ([numeric >= symbolic] — the derivations are one-sided, so equality is
    not required), failing the query otherwise. *)

type result = { key : Key.t; answer : answer; cached : bool; solver : provenance }

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  cache_len : int;
  jobs : int;  (** jobs dequeued by pool workers *)
  queries : int;
  domains : int;
  build_s : float;  (** wall time spent building + keying complexes *)
  compute_s : float;  (** wall time spent in homology on cache misses *)
}
(** A read of the {!Psph_obs.Obs} registry ([engine.cache.*],
    [engine.pool.*], [engine.queries], [engine.build_s],
    [engine.compute_s]) plus this engine's cache length.  The registry is
    process-global, so with several engines in one process the counters
    aggregate across them. *)

type t

val create :
  ?domains:int ->
  ?capacity:int ->
  ?persist:string ->
  unit ->
  t
(** [domains] is the number of worker domains that run {!dispatch}ed
    requests; it defaults to [min 4 (recommended_domain_count - 1)], at
    least 1, and [0] runs every dispatched request inline.  [capacity]
    (default 4096) bounds the LRU, and at twice that the spec memo in
    front of it (its size is the [engine.spec_memo] gauge).  [persist]
    names a {!Store} file loaded now and written by {!flush}/{!shutdown}. *)

val build : spec -> Complex.t
(** The labelled complex a spec denotes (no caching, no homology).  A
    query miss does not call this: it builds the spec's index over vertex
    ids, with the same simplexes, numbering and key.
    @raise Invalid_argument on invalid parameters, an unknown model name
    (the message lists the registered models), a psph spec of more
    than {!Psph_topology.Vertex_table.max_faces} simplices, or a model
    spec with [n >= 20] (its failure-free facet alone has more).
    @raise Failure once a model build passes that many simplices. *)

val eval : ?mode:mode -> t -> spec -> result
(** Betti numbers need the numeric tier, so [mode] (default [Auto]) only
    distinguishes [Check] (cross-check connectivity against the symbolic
    bound; raises [Failure] on violation) here; [Symbolic_only] raises
    [Invalid_argument]. *)

val eval_conn : ?mode:mode -> t -> spec -> result
(** Answer a connectivity query through the tiered solver.  Under [Auto] a
    recognized spec (psph, or a registered model) whose symbolic
    derivation applies is answered in O(formula) without realizing the
    complex: [result.answer.betti] is [[||]], [result.key] identifies the
    canonical spec string ({!Key.of_string}), and [result.solver] carries
    the rule and proof size.  Symbolic answers are {e lower bounds} and
    are never cached (they cost nothing to rederive); numeric answers
    share the ordinary content-addressed slots, so the cache stays
    tier-irrelevant.  [Symbolic_only] raises [Failure] when no derivation
    applies. *)

val provenance_fields : provenance -> (string * Psph_obs.Jsonl.t) list
(** The wire rendering of a provenance (the "solver" response field), in
    fixed field order: [tier], then [rule]/[steps]/[checked] when
    present.  Shared by Serve and the binary codec's JSON mirror so the
    two renderings stay byte-identical. *)

val dispatch : t -> (unit -> unit) -> unit
(** {!Pool.dispatch} on the engine's worker pool: run the request [f] on
    a worker without awaiting it — inline when the engine has no workers
    ([domains = 0]) or is already shut down.  The network server uses
    this to keep its event loops free of CPU-bound handler work; [f] must
    handle its own errors. *)

val warm : t -> (Key.t * Store.entry) list -> int
(** Insert finished answers straight into the memo cache (the wire-side
    counterpart of the [persist] load at {!create}): how [populate]
    hints land.
    Content addressing makes this safe — an entry under a key can only
    ever be that key's answer.  Returns the number of entries loaded. *)

val snapshot : t -> (Key.t * Store.entry) list
(** The memo cache as store entries, MRU first — what {!flush} writes. *)

val stats : t -> stats

val flush : t -> unit
(** Write the persistent store, if configured (atomic rename). *)

val shutdown : t -> unit
(** {!flush}, then stop and join the worker domains. *)
