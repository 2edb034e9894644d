(** The paper's lower bounds, as formulas and as machine checks.

    Each check builds the protocol complex the paper analyses, measures its
    homological connectivity against the lemma's claim, and runs the
    decision-map search to witness (im)possibility directly. *)

open Psph_model

val corollary13_impossible : f:int -> k:int -> bool
(** Asynchronous f-resilient k-set agreement is impossible iff [k <= f]. *)

val theorem18_rounds : n:int -> f:int -> k:int -> int
(** Synchronous round lower bound (Theorem 18). *)

val corollary22_time : f:int -> k:int -> c1:int -> c2:int -> d:int -> float
(** Semi-synchronous wait-free time lower bound (Corollary 22). *)

type check = {
  label : string;
  connectivity : int;  (** measured homological connectivity *)
  expected_connectivity : int;  (** the lemma's lower bound *)
  decision : Value.t Decision.outcome;  (** search outcome on the complex *)
  impossible_expected : bool;  (** does the paper predict impossibility? *)
}

val pp_check : Format.formatter -> check -> unit

val holds : check -> bool
(** Connectivity at least as claimed, and the search verdict matches the
    prediction (an [Unknown] verdict fails). *)

val async_check : n:int -> f:int -> k:int -> r:int -> values:Value.t list -> check
(** Lemma 12 + Corollary 13 on [A^r] over the full input complex. *)

val sync_check : n:int -> k_round:int -> k_task:int -> r:int -> values:Value.t list -> check
(** Lemma 16/17 + Theorem 18 on [S^r] (at most [k_round] crashes per
    round), asking for a [k_task]-set agreement map. *)

val semi_check :
  n:int -> k_round:int -> k_task:int -> p:int -> r:int -> values:Value.t list -> check
(** Lemma 21 + Corollary 22 on [M^r]. *)
