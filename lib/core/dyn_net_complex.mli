(** Directed dynamic networks under a message adversary
    (Rincon Galeana-Kuznetsov-Rieutord-Schmid, PAPERS.md).

    Each round the adversary picks one communication digraph from its
    class; a process receives exactly from its in-neighborhood (always
    including itself) and the full-information protocol records what it
    heard.  Unlike the crash models there is no failure discipline and no
    process ever leaves the carrier — the adversary classes restrict the
    {e shape} of each round's digraph instead:

    - {!Rooted}: some process reaches everyone (broadcastable rounds);
    - {!Strong}: every process reaches everyone;
    - {!All}: unrestricted — any digraph with self-loops. *)

open Psph_topology

type adversary = Rooted | Strong | All

val adversary_of_int : int -> adversary option
val adversary_name : adversary -> string

val allows : adversary -> int array -> bool
(** [allows adv ins]: whether the class permits the digraph on processes
    [0 .. m-1] in which process [i] hears from the index set whose bitmask
    is [ins.(i)] (bit [i] always set).  Agrees with
    [Round_schedule.rooted] / [Round_schedule.strongly_connected] on every
    digraph. *)

val one_round : adversary -> Simplex.t -> Complex.t
(** The one-round complex: one facet per digraph the class allows, in
    which process [p]'s new label pairs its previous state with the sorted
    [(pid, state)] list of its in-neighbourhood.  Built as a filtered
    pseudosphere product: under {!All} it is exactly
    [psi(s; heard-set labels)], each process choosing its in-neighbourhood
    independently; {!Rooted} and {!Strong} keep the closure of the choice
    tuples whose digraph they allow.
    @raise Invalid_argument if [s] has so many processes that a face of
    the product cannot be coded in one [int]. *)

val rounds : adversary -> r:int -> Simplex.t -> Complex.t
(** [r]-fold composition via {!Carrier.compose}, with {!one_round} as
    the single branch: every facet keeps full dimension, so the facets of
    a round complex are exactly its digraph facets. *)

val over_inputs : adversary -> r:int -> Complex.t -> Complex.t

val expected_connectivity : adversary -> m:int -> r:int -> int option
(** [Some 0] (connected) for {!Rooted} and {!All} at [r >= 1] — rooted
    digraphs glue through the star rounds in which only a root speaks;
    [None] for {!Strong}, which the solver resolves numerically. *)
