(** Integral simplicial homology.

    Computes [H_d(K; Z) = Z^{b_d} + Z/t_1 + ... + Z/t_s] via Smith normal
    forms of the (signed) boundary matrices.  Strictly stronger than
    {!Homology}'s Z/2 computation: it separates free rank from torsion
    (e.g. the projective plane has [H_1 = Z/2] — Z/2 Betti 1, integral
    Betti 0 with torsion [2]).

    For the paper's connectivity checks the {!Homology} module is the
    workhorse (faster, and equivalent on wedge-of-spheres complexes); this
    module certifies that the complexes involved are in fact
    torsion-free, closing the gap between homological and topological
    connectivity evidence. *)

type group = { rank : int; torsion : int list }
(** [Z^rank + sum Z/t], torsion coefficients sorted, each dividing the
    next. *)

val group_to_string : group -> string
(** e.g. ["Z^2"], ["Z + Z/2"], ["0"]. *)

val homology : ?max_dim:int -> Complex.t -> group array
(** Unreduced integral homology groups [H_0 .. H_dim]. *)

val reduced_homology : ?max_dim:int -> Complex.t -> group array
(** Reduced: [H~_0] has one less free generator. *)

val is_torsion_free : ?max_dim:int -> Complex.t -> bool

val betti_z : ?max_dim:int -> Complex.t -> int array
(** Free ranks only (rational Betti numbers). *)
