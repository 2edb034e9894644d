(** Pseudospheres (Section 5 of the paper).

    Definition 3: given a simplex [S = (x_0, ..., x_m)] and finite value
    sets [U_0, ..., U_m], the pseudosphere [psi(S; U_0, ..., U_m)] has a
    vertex [(x_i, u)] for every [u in U_i], and a set of vertices spans a
    simplex iff their base vertices [x_i] are distinct.

    The type {!t} is the {e symbolic} form — the base simplex plus the
    per-vertex value sets.  {!facets} gives the realized complex's facets
    over vertex ids, interning each vertex in a {!Vertex_table} once, which
    is how every model build uses a pseudosphere; {!realize} produces the
    labelled complex.
    Symbolic forms support the algebra of Lemma 4 exactly (deleting empty
    value sets, componentwise intersection), which is what the
    Mayer–Vietoris engine manipulates. *)

open Psph_topology

type t
(** A pseudosphere in symbolic form.  Value sets are kept sorted and
    deduplicated; base vertices with empty value sets are retained until
    {!normalize} (Lemma 4.2 says deleting them does not change the
    complex). *)

val create : base:Simplex.t -> values:(Pid.t -> Label.t list) -> t
(** [create ~base ~values]: the pseudosphere over the chromatic simplex
    [base], assigning to the vertex coloured [p] the value set [values p].
    @raise Invalid_argument if [base] is not chromatic. *)

val uniform : base:Simplex.t -> Label.t list -> t
(** All base vertices get the same value set — the paper's [psi(S; U)]. *)

val base : t -> Simplex.t

val values : t -> (Pid.t * Label.t list) list
(** Per base pid, the sorted value list. *)

val normalize : t -> t
(** Remove base vertices whose value set is empty (Lemma 4.2: the complex
    is unchanged).  A pseudosphere with no empty value set is returned as
    it is, so {!equal} and {!subsumes} on normalized forms do no further
    normalizing work. *)

val dim : t -> int
(** Dimension of the realized complex: (number of nonempty value sets) - 1. *)

val is_empty : t -> bool
(** No base vertex has a value. *)

val connectivity_bound : t -> int
(** Corollary 6: a pseudosphere of dimension [m] (with nonempty value
    sets) is [(m - 1)]-connected; returns [dim - 1] ([-2] when empty). *)

val inter : t -> t -> t
(** Lemma 4.3: [psi(S0; U) /\ psi(S1; V) = psi(S0 /\ S1; U /\ V)]
    (componentwise).  The result is not normalized. *)

val subsumes : t -> t -> bool
(** [subsumes a b]: does [a]'s realization contain [b]'s?  (Base contains
    base and value sets contain value sets, after normalization.) *)

val equal : t -> t -> bool
(** Equality of normalized symbolic forms (implies equal realizations). *)

type vertex_builder = Pid.t -> Label.t -> Label.t -> Vertex.t
(** [builder pid base_label value] constructs a realized vertex. *)

val default_vertex : vertex_builder
(** [(p, _, u) -> Proc (p, u)]: the paper's plain labelling, which forgets
    the base label. *)

val paired_vertex : vertex_builder
(** [(p, b, u) -> Proc (p, Pair (b, u))]: keeps the base label, so
    realizations of pseudospheres over distinct faces of a common simplex
    intersect exactly as Lemma 4.3 predicts. *)

val shared : vertex_builder -> vertex_builder
(** [shared builder] builds the vertex of each pid and value once and
    hands the same vertex back after that.  For pieces whose bases give
    each pid one label, such as the pieces of one round over one simplex,
    which share most of their vertices. *)

val facets :
  ?vertex:vertex_builder -> t -> Vertex_table.t -> (int array -> unit) -> unit
(** [facets t tbl emit]: the facets of the realized complex — the choice
    tuples, one value per (nonempty) base vertex — over vertex ids.  Each
    vertex is built and interned in [tbl] once; [emit] gets each tuple's
    ids in pid order, which is {!Vertex.compare} order as long as the
    builder keeps the pid (every builder here does).  The array is reused
    after [emit] returns.  Defaults to {!paired_vertex}. *)

val realize : ?vertex:vertex_builder -> t -> Complex.t
(** Build the labelled complex: the closure of {!facets}, through a
    {!Vertex_table}.  Defaults to {!paired_vertex}. *)

val facet_count : t -> int
(** Product of the nonempty value-set sizes (0 if empty pseudosphere). *)

val simplex_count : t -> int
(** Number of nonempty simplices: [prod (1 + |U_i|) - 1], or [max_int]
    when that overflows an int. *)

val binary : int -> t
(** [binary n]: the [n]-dimensional binary pseudosphere
    [psi(P^n; {0, 1})] of Figure 1 — topologically an [n]-sphere. *)

val pp : Format.formatter -> t -> unit
