(** The asynchronous protocol complex (Section 6).

    One round: each process sends its state to all, and receives at least
    [n - f + 1] of the messages sent that round (including its own) —
    the most it can count on when up to [f] processes may fail.  Lemma 11:
    the one-round complex from input simplex [S] is the single pseudosphere
    [psi(S; 2^{P - P_0}_{>= n - f}, ...)], vertices labelled by the sets of
    {e other} processes heard from.

    The [r]-round complex iterates the construction, with vertices carrying
    full-information views so that states reached from different
    intermediate global states stay distinct.

    All constructors take the system dimension [n] ([n + 1] processes) and
    failure budget [f] explicitly; the input simplex may be a face of
    [P^n] (the participating set), in which case the complex is empty when
    fewer than [n - f + 1] processes participate. *)

open Psph_topology

val round : n:int -> f:int -> Carrier.round
(** The facets of {!pseudosphere} with view labels, over vertex ids: the
    model is monotone, so its one pseudosphere is its one branch. *)

val one_round : n:int -> f:int -> Simplex.t -> Complex.t
(** [A^1(S)]: vertex labels are encoded one-round views. *)

val rounds : n:int -> f:int -> r:int -> Simplex.t -> Complex.t
(** [A^r(S)] by iterated substitution; [r = 0] gives the solid input
    simplex. *)

val over_inputs : n:int -> f:int -> r:int -> Complex.t -> Complex.t
(** [P(I)]: union of [A^r(S)] over the facets [S] of an input complex. *)

val pseudosphere : n:int -> f:int -> Simplex.t -> Psph.t
(** Lemma 11's right-hand side in symbolic form: value sets are the
    heard-sets (encoded as [Pid_set] of the senders {e including} the
    receiver), which makes vertex labels intrinsic. *)

val lemma11_rhs : n:int -> f:int -> Simplex.t -> Complex.t
(** The realization of {!pseudosphere} with the paper's plain labelling:
    vertex [(P_i, ids(M) - {P_i})]. *)

val lemma11_map : Vertex.t -> Vertex.t
(** The explicit vertex map [L (P_i, M) = (x_i, ids(M) - {P_i})] from the
    proof of Lemma 11. *)

val lemma11_holds : n:int -> f:int -> Simplex.t -> bool
(** Check that {!lemma11_map} is an isomorphism from {!one_round} onto
    {!lemma11_rhs} — the machine-checked Lemma 11. *)

val lemma12_expected_connectivity : m:int -> n:int -> f:int -> int
(** The connectivity lower bound asserted by Lemma 12 for [A^r(S^m)]:
    [m - (n - f) - 1]. *)

val corollary13_impossible : f:int -> k:int -> bool
(** Corollary 13: asynchronous f-resilient k-set agreement is impossible
    iff [k <= f]. *)
