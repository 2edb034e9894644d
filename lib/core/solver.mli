(** The symbolic connectivity tier.

    The paper never eliminates a boundary matrix: connectivity of a round
    complex is derived symbolically — Corollary 6 bounds each pseudosphere,
    Theorem 2 glues them along the ordered prefix intersections, and the
    closed-form lemmas (12, 16/17, 21) extend the bound to [r] rounds.
    This module packages those derivations as a solver tier: given a
    registered model and spec (or a raw pseudosphere query) it produces a
    connectivity {e lower bound} in O(formula) time, without realizing the
    complex — the fast path the query engine tries before falling back to
    Z/2 elimination over the built complex.

    Because every rule here bounds from below, a numeric cross-check must
    assert [numeric >= symbolic], not equality: e.g. the one-round [dyn]
    complex at [n = 2] (default adversary) has Betti numbers [1,0,17] and
    is 1-connected, while its rooted-adversary bound is 0. *)

type symbolic = {
  connectivity : int;  (** the derived lower bound *)
  rule : string;
      (** which rule concluded it: ["Theorem 2 + Corollary 6"], a lemma
          citation from {!Model_complex.MODEL.connectivity_lemma},
          ["Corollary 6"], or ["solid input simplex (r=0)"] *)
  steps : int;  (** proof size: {!Mayer_vietoris.size}, or 1 for a lemma *)
  proof : Mayer_vietoris.proof option;
      (** the full derivation when the Mayer–Vietoris tier answered *)
}

val standard_inputs : int -> (Psph_topology.Pid.t * Psph_model.Value.t) list
(** [[ (i, i mod 2) ]] for [i = 0..n] — the canonical input assignment
    every front end uses for an [n]-dimensional query. *)

val standard_input : int -> Psph_topology.Simplex.t
(** The input simplex of {!standard_inputs} (the engine's build base). *)

val mv_piece_cap : int
(** Largest decomposition (piece count) the Mayer–Vietoris tier derives;
    above it the recursion's worst-case exponential cost outweighs the
    symbolic win and the solver falls through to the lemma tier. *)

val pieces :
  Model_complex.model -> Model_complex.spec -> Psph.t Seq.t option
(** The model's pseudosphere decomposition over {!standard_input}, when
    registered and [spec.r = 1] (the decomposition describes one round).
    Pieces are built as the sequence is read. *)

val symbolic_model :
  Model_complex.model -> Model_complex.spec -> symbolic option
(** Try the symbolic tiers for a model query, best rule first: [r = 0] is
    the solid (contractible) input; at [r = 1] a registered decomposition
    of at most {!mv_piece_cap} pieces gets a full Theorem 2 + Corollary 6
    derivation (at most [mv_piece_cap + 1] pieces are ever built, so a
    larger decomposition costs no more than the cap); otherwise the
    model's closed-form lemma, when its hypothesis holds.  [None] when no
    rule applies.
    @raise Invalid_argument when the spec fails the model's [validate]. *)

val symbolic_psph : n:int -> values:int -> symbolic option
(** Corollary 6 for the uniform pseudosphere [psi(P^n; {0..values-1})]:
    connectivity [>= n - 1] (exactly [-2] when empty), computed without
    realizing the [values^(n+1)]-facet complex. *)
