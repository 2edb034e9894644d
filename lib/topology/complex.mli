(** Simplicial complexes.

    A complex is a set of nonempty simplexes closed under containment (every
    nonempty face of a member is a member).  Intersection-closure is
    automatic for vertex-set representations.  The empty complex has
    dimension [-1] by convention. *)

type t

val empty : t

val is_empty : t -> bool

val of_facets : Simplex.t list -> t
(** The closure of the given simplexes (their faces are added). *)

val of_simplex : Simplex.t -> t
(** The closure of a single simplex: the "solid" simplex as a complex. *)

val of_closure : Simplex.t list -> t
(** Unchecked fast path: build directly from a list that is already closed
    under taking nonempty faces (duplicates and empty simplexes are
    dropped).  The caller is trusted; feeding a non-closed list breaks the
    complex invariant.  Used by constructors that enumerate full closures
    by structure, e.g. pseudosphere realization. *)

val boundary_complex : Simplex.t -> t
(** The boundary of a simplex: the closure of its codimension-1 faces, e.g.
    [boundary_complex (Simplex.proc_simplex n)] is an [(n-1)]-sphere. *)

val add_facet : Simplex.t -> t -> t

val mem : Simplex.t -> t -> bool

val mem_vertex : Vertex.t -> t -> bool

val simplices : t -> Simplex.t list
(** All simplexes, in increasing {!Simplex.compare} order. *)

val fold : (Simplex.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Simplex.t -> unit) -> t -> unit

val num_simplices : t -> int

val dim : t -> int

val facets : t -> Simplex.t list
(** Maximal simplexes. *)

val simplices_of_dim : t -> int -> Simplex.t list

val count_of_dim : t -> int -> int

val f_vector : t -> int array
(** [f_vector c].(d) is the number of [d]-simplexes, for [0 <= d <= dim c].
    The empty complex has f-vector [[||]]. *)

val euler : t -> int
(** Euler characteristic: the alternating sum of the f-vector. *)

val vertices : t -> Vertex.t list

val num_vertices : t -> int

val union : t -> t -> t

val inter : t -> t -> t

val diff_facets : t -> t -> t
(** Closure of the facets of the first complex not present in the second. *)

val equal : t -> t -> bool

val subcomplex : t -> t -> bool
(** [subcomplex a b]: is every simplex of [a] a simplex of [b]? *)

val skeleton : int -> t -> t
(** [skeleton k c] keeps the simplexes of dimension [<= k]. *)

val star : Vertex.t -> t -> t
(** Closed star: closure of all simplexes containing the vertex. *)

val link : Vertex.t -> t -> t
(** [link v c]: simplexes [s] with [v] not in [s] and [s + v] in [c]. *)

val join : t -> t -> t
(** Simplicial join; vertex sets must be disjoint.
    @raise Invalid_argument otherwise. *)

val map : (Vertex.t -> Vertex.t) -> t -> t
(** Image under a vertex map (always a complex; simplexes may collapse). *)

val restrict_ids : Pid.Set.t -> t -> t
(** Induced subcomplex on [Proc] vertices whose pid is in the set. *)

val connected_components : t -> Vertex.Set.t list
(** Vertex sets of the graph-theoretic (0-dimensional) components. *)

val is_connected : t -> bool
(** 0-connected: nonempty and one component. *)

val is_pure : t -> bool
(** All facets have the same dimension. *)

val ids : t -> Pid.Set.t
(** Union of pids over all [Proc] vertices. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: dimension, f-vector, Euler characteristic. *)

val pp : Format.formatter -> t -> unit
(** Facet listing (for small complexes). *)
