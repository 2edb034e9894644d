(** Applying a round operator across a complex.

    The paper's iterated constructions "replace each simplex of the
    one-round complex with the complex produced by the remaining rounds"
    (Section 1).  In the asynchronous model the construction is monotone —
    the complex of a face is a subcomplex of the complex of a facet — so
    the union over the facets of [A^1] already contains the union over all
    simplexes, and {!compose} recurses over one branch's facets.  (The
    synchronous and semi-synchronous models are NOT monotone in this
    sense; they recurse over the facets of each per-failure-set
    pseudosphere instead.) *)

open Psph_topology

val over_facets : (Simplex.t -> Complex.t) -> Complex.t -> Complex.t
(** Union of the operator applied to every facet. *)

val compose : branches:(Simplex.t -> Complex.t list) -> int -> Simplex.t -> Complex.t
(** [compose ~branches r s]: the generic round-composition operator
    shared by every registered model.  [branches s] lists the one-round
    complexes whose facets are each recursed on {e separately} — the
    union of branch facets is not enough for the non-monotone models,
    where an exact-failure facet can be a face of the failure-free facet
    yet have continuations of its own.  For a monotone model, pass a
    single branch (the one-round complex).  A call keeps a visited set of
    [(r, state)] pairs and one accumulator: each distinct pair is
    expanded once (one [model.round] event each), collapsing the
    exponentially many recursion branches that revisit the same (round,
    global-state) pair, and the branch complexes of the last round are
    unioned straight into the accumulator, so no per-state complex stays
    live until the call returns.  [compose ~branches 0 s] is the solid
    [s]. *)
