(** The iterated immediate snapshot protocol complex (Borowsky–Gafni).

    The wait-free one-round IIS complex of a simplex [S] is the standard
    chromatic subdivision of [S]; iterating gives the IIS model's protocol
    complexes.  Section 6 of the paper presents its asynchronous
    message-passing round as "something like a message-passing analog" of
    this model; the bridge results here make the analogy exact and
    machine-checked:

    - the IIS complex coincides with the complex enumerated from
      shared-memory immediate-snapshot executions ({!Psph_model.Snapshot});
    - it is isomorphic to the standard chromatic subdivision;
    - it is a {e subcomplex} of the wait-free one-round message-passing
      complex [A^1] with [f = n] (a snapshot view is a legal heard set);
    - unlike [A^1] it is contractible (a subdivision), not merely
      [(f-1)]-connected. *)

open Psph_topology

val round : Carrier.round
(** One facet per immediate-snapshot schedule, over vertex ids. *)

val one_round : Simplex.t -> Complex.t
(** The one-round wait-free IIS complex with full-view vertex labels. *)

val rounds : r:int -> Simplex.t -> Complex.t
(** Iterated: apply to every facet, union ([r = 0] is the solid input). *)

val over_inputs : r:int -> Complex.t -> Complex.t

val enumerated : r:int -> (Pid.t * Psph_model.Value.t) list -> Complex.t
(** The same complex from the operational semantics. *)

val isomorphic_to_chromatic : Simplex.t -> bool
(** [one_round s] is isomorphic to
    [Subdivision.chromatic_of_simplex s]. *)

val subcomplex_of_async : n:int -> Simplex.t -> bool
(** [one_round s] is a subcomplex of the wait-free
    [Async_complex.one_round ~n ~f:n s]. *)
