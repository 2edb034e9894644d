(** Tasks as output complexes and carrier-preserving simplicial maps.

    In the topological formulation (Herlihy–Shavit's asynchronous
    computability theorem, which Section 2 says the pseudosphere
    construction simplifies), a task is an {e output complex} [O] plus a
    {e carrier map} assigning to each input simplex the subcomplex of legal
    outputs, and a protocol solves the task iff there is a colour- and
    carrier-preserving simplicial map from its protocol complex to [O].

    A decision map in the paper's sense (Section 4) is exactly such a map
    into the k-set agreement output complex, so {!solve} strictly
    generalizes {!Decision.solve}.  Both run the one search of
    {!Decision.search}; the test-suite checks they agree on k-set
    instances. *)

open Psph_topology
open Psph_model

val kset_output : n:int -> k:int -> values:Value.t list -> Complex.t
(** The k-set agreement output complex: vertices [(P, v)], facets all
    chromatic [n]-simplexes carrying at most [k] distinct values. *)

val consensus_output : n:int -> values:Value.t list -> Complex.t
(** [kset_output ~k:1]: one disjoint monochrome simplex per value. *)

val solve :
  ?budget:int ->
  complex:Complex.t ->
  output:Complex.t ->
  carrier:(Vertex.t -> Value.t list) ->
  unit ->
  Vertex.t Decision.outcome
(** {!Decision.search} for a colour-preserving simplicial map from the
    protocol complex to [output] sending each vertex [(P, view)] to some
    [(P, v)] with [v] allowed by the carrier, such that every facet's
    image is a simplex of [output].  The witness maps protocol vertices
    to output vertices. *)
