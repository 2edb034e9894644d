(** Exhaustive decision-map search.

    Theorems 9/10 and Corollaries 13/18/22 assert that no decision map
    exists on sufficiently connected protocol complexes.  This module
    decides the question {e directly} on concrete complexes.  One
    backtracking search ({!search}) assigns each vertex a value from its
    domain and checks every facet through the vertex against a per-facet
    constraint; it runs under three constraints: the k-set task
    ({!solve}), an arbitrary monotone predicate ({!solve_general}) and
    simpliciality into an output complex ({!Carrier_map.solve}).
    [Impossible] results are exhaustive-search certificates of the paper's
    lower bounds at the tested sizes; [Solution] results witness
    solvability (e.g. one round beyond the bound). *)

open Psph_topology
open Psph_model

type 'a outcome =
  | Solution of 'a Vertex.Map.t  (** a witness: vertex -> assigned value *)
  | Impossible
  | Unknown  (** node budget exhausted *)

val search :
  budget:int ->
  complex:Complex.t ->
  domain:(Vertex.t -> 'a list) ->
  facet_ok:('a list -> 'a array list -> bool) ->
  'a outcome
(** Backtracking search for a map sending each vertex of [complex] to a
    value of its [domain].  Vertices are taken smallest domain first, then
    most facets first.  After each assignment, every facet through the
    vertex must pass [facet_ok assigned open_domains]: the values assigned
    so far in the facet (in vertex order, never empty: the facet holds the
    vertex just assigned) and the domains of its still unassigned
    vertices.  [facet_ok] must be monotone: it may return
    [false] only when no completion can pass.  More than [budget] search
    nodes gives [Unknown]. *)

val solve :
  ?budget:int ->
  ?forward_check:bool ->
  complex:Complex.t ->
  allowed:(Vertex.t -> Value.t list) ->
  k:int ->
  unit ->
  Value.t outcome
(** {!search} with validity domains and "at most [k] distinct values per
    facet".  [budget] bounds the number of search nodes (default 20
    million).  [forward_check] (default [true]) prunes branches in which
    a saturated facet leaves some unassigned vertex without a compatible
    value; it is the only k-specific pruning, and disabling it is the
    ablation benchmarked in [bench/main.ml]. *)

val solvable :
  ?budget:int ->
  ?forward_check:bool ->
  complex:Complex.t ->
  allowed:(Vertex.t -> Value.t list) ->
  k:int ->
  unit ->
  bool option
(** [Some true] / [Some false] when the search completes, [None] on budget
    exhaustion. *)

val solve_general :
  ?budget:int ->
  complex:Complex.t ->
  domains:(Vertex.t -> Value.t list) ->
  partial_ok:(Value.t list -> bool) ->
  unit ->
  Value.t outcome
(** {!search} under a task-agnostic constraint: [partial_ok] is a
    monotone predicate on the values assigned so far within one facet.
    With {!kset_constraint} it gives {!solve}'s verdicts, without the
    forward check; {!distinct_constraint} gives renaming-style tasks. *)

val kset_constraint : int -> Value.t list -> bool
(** "At most k distinct values." *)

val distinct_constraint : Value.t list -> bool
(** "Pairwise distinct values." *)

val consensus_components_solvable :
  complex:Complex.t -> allowed:(Vertex.t -> Value.t list) -> bool
(** Fast exact decision for [k = 1]: a consensus map exists iff every
    connected component's vertices share a common allowed value.  Used as a
    cross-check of {!solve}. *)
