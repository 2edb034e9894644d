(** The first-class model registry.

    The paper's whole point is that the asynchronous, synchronous and
    semi-synchronous round complexes are {e one} construction — unions of
    pseudospheres — viewed through different failure disciplines.  This
    module makes that unification first-class: a {!MODEL} signature
    packaging a model's name, parameter discipline and round
    operator, and a registry through which every consumer (the query
    engine, [psc serve], the [psc] subcommands, benches, examples and
    tests) reaches all models generically.  Registering a new model makes
    it reachable from all of them with zero consumer-side edits — the
    {!section-instances} below register [async], [sync], [semi], [iis],
    [byz] and [dyn] this way.

    All models draw their common parameters from one {!spec} record; each
    model's [normalize] zeroes the fields it ignores, so the canonical
    {!encode} of two specs differing only in an irrelevant parameter
    coincide — the property the engine's spec-level memo table relies on.
    Parameters that only one adversary family needs ride in the open
    {!ext} payload instead: a model {e declares} its extension parameters
    ({!MODEL.ext_params}) and [normalize] canonicalizes the payload
    (declared order, defaults filled, unknown keys dropped), so extension
    values flow through cache keys, the wire codec and the CLI without
    widening the common record for everyone. *)

open Psph_topology

type ext = (string * int) list
(** A model-owned extension payload: ordered [(name, value)] pairs.
    Canonical after [normalize]: declared order, every declared key
    present, nothing else. *)

type spec = { n : int; f : int; k : int; p : int; r : int; ext : ext }
(** The common core of every model's parameters: dimension [n] ([n + 1]
    processes), failure budget [f] (async), failures per round [k]
    (sync/semi/byz), microrounds per round [p] (semi), rounds [r] — plus
    the model-owned {!ext} payload (Byzantine corruption budget,
    adversary class, ...).  A model reads only the fields its [normalize]
    keeps. *)

val default_spec : spec
(** [{ n = 2; f = 1; k = 1; p = 2; r = 1; ext = [] }] — the [psc] flag
    defaults. *)

(** {2 Extension parameters} *)

type ext_param = {
  ep_name : string;  (** key in {!ext}, CLI flag name, wire field name *)
  ep_doc : string;  (** one-line help for the generated [psc] flag *)
  ep_default : int;  (** value filled in by [normalize] when absent *)
  ep_parse : string -> (int, string) result;
      (** parse a CLI/wire string form (enum names or integers) *)
  ep_show : int -> string;  (** human-readable rendering of a value *)
}
(** One declared extension parameter.  The declaration is what lets every
    generic tier handle the parameter without knowing the model: [psc]
    generates a flag per [ep_name], [serve] and the router accept the key
    in JSON requests, the codec packs canonical payloads into the binary
    layout, and {!encode} appends [,name=value] pairs to the cache key. *)

val int_param : name:string -> doc:string -> default:int -> ext_param
(** A plain integer-valued parameter. *)

val enum_param :
  name:string -> doc:string -> choices:(string * int) list -> default:int ->
  ext_param
(** A named-choice parameter; [ep_parse] accepts the choice names and
    their integer codes, [ep_show] prints the name. *)

val canonical_ext : ext_param list -> ext -> ext
(** Canonicalize a payload against a declaration: declared order,
    defaults filled in, unknown keys dropped.  Models call this from
    [normalize]. *)

val ext_value : spec -> string -> default:int -> int
(** Look up an extension value by name, falling back to [default]. *)

module type MODEL = sig
  val name : string
  (** Registry key and CLI/wire name ([async], [sync], ...). *)

  val doc : string
  (** One-line description, used for the generated [psc] subcommand. *)

  val ext_params : ext_param list
  (** The model-owned parameters, in canonical payload order.  [[]] for
      models fully described by the common record. *)

  val normalize : spec -> spec
  (** Zero the common parameters this model ignores and canonicalize the
      extension payload.  Idempotent; two specs with equal [normalize]
      images denote the same complex. *)

  val validate : spec -> (spec, string) result
  (** Range-check the relevant parameters (including extension values)
      and return the normalized spec, or a human-readable error. *)

  val round : spec -> Carrier.round
  (** The facets of each branch of the one-round complex over a state,
      over vertex ids: what {!Carrier.compose} iterates.  A model is its
      round operator: every complex of the model ({!one_round},
      {!rounds}, {!over_inputs}, {!rounds_index}) is built from it. *)

  val pseudosphere_decomposition : (spec -> Simplex.t -> Psph.t Seq.t) option
  (** The model's symbolic decomposition: pseudospheres (with intrinsic
      value labels) whose union realizes the one-round complex up to the
      relabelling {!intrinsic_map} — Lemmas 11, 14 and 19 in one shape.
      The sequence is in the paper's order and builds each piece only when
      it is reached, so a consumer that stops early (the solver, at
      {!Solver.mv_piece_cap}) pays only for the pieces it read.
      [None] for models that are not pseudosphere unions (IIS: a
      subdivision, hence contractible, unlike any pseudosphere union) or
      whose pieces carry intrinsic labels already ([byz], [dyn]). *)

  val expected_connectivity : spec -> m:int -> int option
  (** The model's connectivity lower bound for the [spec.r]-round complex
      over an [m]-simplex, when the relevant lemma's hypothesis holds
      (Lemmas 12, 16/17, 21; the Mendes-Herlihy ceil(t/k)-round bound;
      rooted-adversary connectedness); [None] when it does not apply. *)

  val connectivity_lemma : string
  (** Human-readable citation for {!expected_connectivity} ("Lemma 12",
      "Lemma 16/17", ...), surfaced as solver provenance when the lemma
      tier answers a query. *)
end

type model = (module MODEL)

(** {2 Registry} *)

val register : model -> unit
(** Make a model reachable from every registry consumer.  Listing order is
    registration order.
    @raise Invalid_argument on a duplicate name. *)

val names : unit -> string list
(** Registered names, in registration order. *)

val all : unit -> model list

val find : string -> model option

val get : string -> model
(** @raise Invalid_argument on an unknown name, listing the available
    models in the message. *)

val name_of : model -> string

val ext_params_of : model -> ext_param list
(** The model's extension declaration, for generic consumers (CLI flag
    generation, request validation, codec layout). *)

(** {2 Canonical encoding and the model's complexes} *)

val encode : model -> spec -> string
(** A canonical, {!Psph_engine.Key}-feedable encoding of [(model, spec)]:
    the model name plus the {e normalized} parameter vector, followed by
    [,name=value] for each canonical extension entry.  Specs differing
    only in parameters the model ignores encode identically, so a cache
    keyed on [encode] can never be mis-keyed by an irrelevant parameter;
    models with an empty payload encode exactly as before extensions
    existed, so pre-existing cache keys stay valid. *)

(** The labelled complexes below are {!Carrier.rounds} and
    {!Carrier.over_inputs} of the model's {!MODEL.round}, each built in a
    [model.one_round] / [model.rounds] / [model.over_inputs] span whose
    [spec] attribute is the canonical {!encode}, so model cost is
    attributed in traces whichever front end asked.  [spec] must be
    valid for the model. *)

val one_round : model -> spec -> Simplex.t -> Complex.t
(** The one-round protocol complex over an input simplex. *)

val rounds : model -> spec -> Simplex.t -> Complex.t
(** The [spec.r]-round complex over an input simplex ([r = 0] gives the
    solid input). *)

val over_inputs : model -> spec -> Complex.t -> Complex.t
(** Union of {!rounds} over the facets of an input complex. *)

val rounds_index : model -> spec -> Simplex.t -> Simplex_index.t
(** The {!Simplex_index} of [rounds model spec s], emitted by the build
    over vertex ids with no labelled complex in between (in a
    [model.rounds] span).  The query engine's miss starts here.
    @raise Failure once the build passes {!Vertex_table.max_faces}. *)

val intrinsic_map : n:int -> Vertex.t -> Vertex.t
(** The generic Lemma 11/14/19 vertex relabelling: a full-information
    one-round view becomes the intrinsic pseudosphere value that produced
    it — the heard pid-set for untimed rounds, the length-[n + 1]
    microround vector for timed rounds.
    @raise Invalid_argument on an initial (round-0) view. *)

val decomposition_holds : model -> spec -> Simplex.t -> bool
(** The machine-checked unification statement, one model at a time: the
    union of the realized {!MODEL.pseudosphere_decomposition} (plain
    labels) is isomorphic, via {!intrinsic_map}, to the model's
    {!one_round} complex.  Vacuously [true] for models without a
    decomposition. *)
