(** Applying a round operator across a complex, over vertex ids.

    The paper's iterated constructions "replace each simplex of the
    one-round complex with the complex produced by the remaining rounds"
    (Section 1).  A round's complex is a union of branches (pseudospheres,
    for the models of the paper), and {!compose} recurses on every facet
    of every branch: the synchronous and semi-synchronous models are not
    monotone, so the facets of the union would not be enough.

    The build works over a {!Vertex_table}: a {!round} interns the
    vertices it creates and emits facets as id arrays, and the table
    emits the {!Simplex_index} of the result directly.  {!rounds} and
    {!over_inputs} materialize a labelled complex from it for callers
    that need one. *)

open Psph_topology

type round = Vertex_table.t -> Simplex.t -> (int array -> unit) -> unit
(** [round t s emit]: the one-round protocol complex over the state [s],
    given facet by facet.  It interns the vertices it creates in [t] and
    calls [emit] with the ids of each facet of each branch, in
    {!Vertex.compare} order.  The array may be reused after [emit]
    returns. *)

val compose : round -> int -> Simplex.t list -> Vertex_table.t
(** [compose round r ss]: a fresh table holding the [r]-round complex
    over each of [ss] ([r = 0] gives the solid simplexes).  One build
    keeps a visited set of [(r, ids)] nodes: each distinct (round, state)
    pair is expanded once (one [model.round] event each), collapsing the
    exponentially many recursion branches that revisit it.  In the last
    round every emitted facet's closure goes straight into the table.
    @raise Failure once the table passes {!Vertex_table.max_faces}. *)

val rounds : round -> int -> Simplex.t -> Complex.t
(** The labelled complex of [compose round r [s]]. *)

val over_inputs : round -> int -> Complex.t -> Complex.t
(** The labelled union of the [r]-round complexes over the facets of an
    input complex. *)
