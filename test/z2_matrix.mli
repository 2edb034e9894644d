(** Sparse matrices over the two-element field Z/2 — the list-based
    reference elimination, and the boundary matrices it reduces, that the
    tests check {!Psph_topology.Bitmat} and {!Psph_topology.Homology}
    against.

    A matrix is a list of columns; a column is the strictly increasing list
    of its nonzero row indices.  Rank is computed with the standard
    column-reduction algorithm from persistent homology: repeatedly cancel a
    column's lowest nonzero entry against the recorded column with the same
    low. *)

type col = int list
(** Strictly increasing row indices of the nonzero entries. *)

val sym_diff : col -> col -> col
(** Sum over Z/2 (symmetric difference of index sets). *)

val low : col -> int option
(** The largest nonzero row index, if any. *)

val rank : col list -> int
(** Rank of the matrix with the given columns. *)

val reduce : col list -> col list
(** The reduced columns, in input order (possibly empty columns). *)

val is_zero : col -> bool

val boundary_matrix : Psph_topology.Complex.t -> int -> col list
(** [boundary_matrix c d] is the matrix of the boundary operator from
    [d]-chains to [(d-1)]-chains, with columns indexed by [d]-simplexes and
    rows by [(d-1)]-simplexes (both in {!Psph_topology.Simplex.compare}
    order), built by sorting and map lookups — the reference the
    {!Psph_topology.Simplex_index} path is checked against.
    @raise Invalid_argument when [d <= 0]. *)
