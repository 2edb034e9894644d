(** A dense integer numbering of one complex's simplexes.

    Vertex ids are [0..V-1] in {!Vertex.compare} order.  A simplex's
    {e key} is the array of its vertex ids in its own (sorted) vertex
    order, and its {e row} is its position among the simplexes of its
    dimension in {!Simplex.compare} order — equivalently, in the
    lexicographic order of keys.  Everything is derived from the complex
    alone: two structurally equal complexes get identical indexes, and an
    index is garbage once its caller drops it.

    Built eagerly and immutable afterwards, so concurrent readers on
    several domains are safe.  This is the numbering {!Homology},
    {!Homology_z} and {!Collapse} build their matrices and coface tables
    over. *)

type t

val create : ?max_dim:int -> Complex.t -> t
(** Index the simplexes of dimension [<= max_dim] (default: all). *)

val keys : t -> int -> int array array
(** [keys t d]: the keys of the [d]-simplexes, indexed by row.  The
    caller must not mutate them. *)

val dim : t -> int
(** The highest indexed dimension ([-1] when nothing is indexed). *)

val complete : t -> bool
(** Whether every simplex of the complex is indexed: [max_dim] cut no
    dimension off. *)

val vertex_hashes : t -> int array
(** [vertex_hashes t]: [Intern.vertex_hash 0x811c9dc5 v] of each vertex
    [v], indexed by its id — computed once per vertex while numbering, so
    a content key can fold them without hashing each vertex occurrence
    again.  The caller must not mutate it. *)

val face_row : t -> int array -> int -> int
(** [face_row t k i]: the row of the facet of the simplex with key [k]
    that omits its [i]-th vertex.  [k] must be the key of an indexed
    simplex of dimension [>= 1]. *)

val packed : t -> int -> bool
(** [packed t d]: whether rows of dimension [d] are found by binary search
    over keys packed into one int, rather than through a [Hashtbl] (the
    fallback once [(d+1)] vertex ids no longer fit in a word).  Defined
    for [d] below the highest indexed dimension. *)
