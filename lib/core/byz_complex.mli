(** The Byzantine synchronous protocol complex (Mendes-Herlihy).

    The adversary owns a total corruption budget of [t] processes and may
    {e expose} at most [k] of them per round.  A round from input simplex
    [S] in which the set [K] is exposed: every survivor receives the
    honest state of every survivor, and, independently per survivor, each
    process of [K] is either silent or heard with one of [versions]
    claimed values (version 0 being what a correct process would have
    sent — so honest-looking behaviour glues the piece onto the
    failure-free execution, and with [versions >= 2] two survivors can be
    shown {e different} values: equivocation).  Exposed processes leave
    the simplex, which is how the budget is tracked across rounds.

    Each piece is a genuine pseudosphere over [S \ K], so the one-round
    complex is a union of pseudospheres exactly as in the crash models;
    the connectivity claim is the Mendes-Herlihy bound: the protocol
    complex stays (k-1)-connected for [ceil(t/k)] rounds. *)

open Psph_topology

val claim : Simplex.t -> Pid.t -> int -> Label.t
(** [claim s q v]: the value a survivor believes [q] sent — [q]'s honest
    label for [v = 0], a tagged forgery for [v >= 1]. *)

val pseudospheres :
  n:int -> k:int -> t:int -> versions:int -> Simplex.t ->
  (Pid.Set.t * Psph.t) list
(** The decomposition of one round from [s]: one nonempty piece per
    exposed set allowed by the remaining budget (at most [min k (t -
    spent)] processes, where [spent = (n + 1) - |ids s|]). *)

val one_round : n:int -> k:int -> t:int -> versions:int -> Simplex.t -> Complex.t

val rounds :
  n:int -> k:int -> t:int -> versions:int -> r:int -> Simplex.t -> Complex.t
(** [r] rounds via {!Carrier.compose}; the per-round exposure cap shrinks
    as the budget is spent (exposed processes have left the simplex). *)

val over_inputs :
  n:int -> k:int -> t:int -> versions:int -> r:int -> Complex.t -> Complex.t

val expected_connectivity :
  m:int -> n:int -> k:int -> t:int -> r:int -> int option
(** The Mendes-Herlihy bound over an [m]-simplex:
    [Some (m - (n - min k (t - (r-1)k)) - 1)] while the budget lasts
    ([r <= ceil(t/k)]) and [n >= rk + k]; [None] otherwise. *)
