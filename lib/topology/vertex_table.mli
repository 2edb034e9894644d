(** A per-build table of vertices and faces over small integers.

    A builder interns each vertex it creates ({!intern}: one
    {!Simplex_index.vertex_hash} per call, kept as the vertex's key hash)
    and hands over facets as arrays of vertex ids; {!add_facet} adds a
    facet's face closure by id.  {!index} then emits the
    {!Simplex_index.t} that {!Simplex_index.create} would give for the
    complex of those faces — same keys, rows and vertex hashes — without
    building a labelled {!Complex.t}; {!complex} materializes one for a
    caller that needs the labels.

    A table is mutable and belongs to one build on one domain. *)

type t

val max_faces : int
(** The build budget: a table refuses to hold more faces than this.  It
    sits far above every complex the repository builds (the largest holds
    154,368 simplices). *)

val over_budget : unit -> 'a
(** @raise Failure naming {!max_faces}: what a build past the budget
    answers.  A builder that can tell up front that its complex is over
    the budget raises it before enumerating anything. *)

val create : unit -> t
(** An empty table; it starts small and grows with what it holds. *)

val intern : t -> Vertex.t -> int
(** The id of a vertex, numbering it on first sight.  Ids are dense and
    in arrival order. *)

val simplex : t -> int array -> Simplex.t
(** The simplex of the vertices with these ids, which must be in
    {!Vertex.compare} order. *)

val add_facet : t -> int array -> unit
(** Add a simplex, given as the ids of its vertices in {!Vertex.compare}
    order, with all its faces.  The array is not kept.
    @raise Failure once the table holds more than {!max_faces} faces.
    @raise Invalid_argument for a simplex of [Sys.int_size - 1] or more
    vertices. *)

val index : t -> Simplex_index.t
(** The complete index of the complex of the added faces: vertex ids in
    {!Vertex.compare} order, keys sorted per dimension.  Vertices interned
    but never added as faces are not part of it. *)

val complex : t -> Complex.t
(** The labelled complex of the added faces. *)
