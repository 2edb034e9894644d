(** The semi-synchronous protocol complex (Section 8).

    Round structure: each round takes time [d]; processes step in lockstep
    every [c1], giving [p = ceil (d / c1)] microrounds per round; all
    messages are delivered at the end of the round.  A view is the vector
    [(mu_0, ..., mu_n)] of last-received microrounds: [p] for live senders,
    [F(P_j) - 1] or [F(P_j)] for a sender failing at microround [F(P_j)],
    and [0] for silent processes.

    Lemma 19: the executions with failure pattern [F] on failure set [K]
    form the pseudosphere [M^1_{K,F}(S) = psi(S \ K; [F])].  The one-round
    complex is the union over [K] (size-then-lex) and [F] (reverse-lex);
    intersections are unions of the [[F ^ j]] pseudospheres (Lemma 20),
    giving the connectivity of Lemma 21 and the Corollary 22 wait-free time
    lower bound [(ceil (f/k) - 1) * d + C * d]. *)

open Psph_topology
open Psph_model

val one_round_pattern : p:int -> n:int -> Simplex.t -> Failure.pattern -> Complex.t
(** [M^1_{K,F}(S)] with full-view vertex labels. *)

val round : k:int -> p:int -> n:int -> Carrier.round
(** One branch per failure set and pattern: the facets of each
    [M^1_{K,F}], over vertex ids. *)

val one_round : k:int -> p:int -> n:int -> Simplex.t -> Complex.t
(** [M^1(S)]: union over failure sets of size [<= k] and patterns. *)

val rounds : k:int -> p:int -> n:int -> r:int -> Simplex.t -> Complex.t
(** [M^r(S)]. *)

val over_inputs : k:int -> p:int -> n:int -> r:int -> Complex.t -> Complex.t

val pseudosphere_pattern :
  p:int -> n:int -> Simplex.t -> Failure.pattern -> Psph.t
(** Symbolic [psi(S \ K; [F])], value labels the intrinsic view vectors
    ([Label.Vec]). *)

val pseudospheres :
  k:int -> p:int -> n:int -> Simplex.t -> (Failure.pattern * Psph.t) list
(** The symbolic decomposition of [M^1(S)] in the paper's order (by [K]
    size-then-lex, then by [F] reverse-lex). *)

val pseudosphere_seq :
  k:int -> p:int -> n:int -> Simplex.t -> (Failure.pattern * Psph.t) Seq.t
(** {!pseudospheres} on demand: each piece is built when the sequence
    reaches it, so a consumer that stops early pays only for what it
    read. *)

val lemma19_rhs : p:int -> n:int -> Simplex.t -> Failure.pattern -> Complex.t
(** [psi(S \ K; [F])] with plain view-vector labels. *)

val lemma19_map : n:int -> Vertex.t -> Vertex.t
(** The vertex map of Lemma 19: a full view becomes its microround
    vector (over the [n + 1]-process universe). *)

val lemma19_holds : p:int -> n:int -> Simplex.t -> Failure.pattern -> bool

val lemma20_lhs :
  p:int -> n:int -> Simplex.t -> Failure.pattern list -> Complex.t
(** For patterns ordered as in the paper, the intersection of the prefix
    union with the last pseudosphere. *)

val lemma20_rhs :
  p:int -> n:int -> Simplex.t -> Failure.pattern list -> Complex.t
(** [U_{j in K_t} psi(S \ K_t; [F_t ^ j])]. *)

val lemma20_holds : p:int -> n:int -> Simplex.t -> Failure.pattern list -> bool

val lemma21_expected_connectivity : m:int -> n:int -> k:int -> int
(** Lemma 21: [M^r(S^m)] is [(m - (n - k) - 1)]-connected when
    [n >= (r + 1) k]. *)

val corollary22_time : f:int -> k:int -> c1:int -> c2:int -> d:int -> float
(** The wait-free time lower bound: [r * d + C * d] with
    [r = ceil (f / k) - 1] the largest round count the connectivity
    argument sustains ([f >= (r + 1) k]) and [C = c2 / c1].  (The
    corollary's printed statement reads [floor (f/k) d + C d]; the bound
    actually derived in the text is [r d + C d] with [n = (r + 1) k], which
    is what we implement — the two agree whenever [k] does not divide
    [f].) *)
