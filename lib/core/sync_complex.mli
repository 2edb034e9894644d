(** The synchronous protocol complex (Section 7).

    One round from input simplex [S] in which exactly the processes of [K]
    crash: every survivor receives the state of every survivor, plus the
    states of an arbitrary subset of [K] (a crashing process's last sends
    reach some processes and not others).  Lemma 14:
    [S^1_K(S) ~ psi(S \ K; 2^K)].  The one-round complex [S^1(S)] is the
    union over all [K] with [|K| <= k]; its intersections are unions of
    pseudospheres (Lemma 15), giving connectivity (Lemma 16) and, iterated,
    Lemma 17 and the Theorem 18 round lower bound for k-set agreement. *)

open Psph_topology

val one_round_failing : Simplex.t -> Pid.Set.t -> Complex.t
(** [S^1_K(S)]: the executions in which exactly [K] fails.  Empty if [K]
    contains every process of [S]. *)

val one_round : k:int -> Simplex.t -> Complex.t
(** [S^1(S)]: union over failure sets of size [<= k] (proper subsets of
    [ids S]). *)

val rounds : k:int -> r:int -> Simplex.t -> Complex.t
(** [S^r(S)]: at most [k] crashes per round, iterated substitution. *)

val over_inputs : k:int -> r:int -> Complex.t -> Complex.t

val pseudospheres : k:int -> Simplex.t -> (Pid.Set.t * Psph.t) list
(** The symbolic decomposition of [S^1(S)] with {e intrinsic} value labels:
    for failure set [K] the value set of every survivor is
    [{survivors + A | A subset of K}] (encoded as [Pid_set]), so shared
    global states coincide across different [K].  Ordered by the paper's
    size-then-lex order on [K]. *)

val pseudosphere_seq : k:int -> Simplex.t -> (Pid.Set.t * Psph.t) Seq.t
(** {!pseudospheres} on demand: each piece is built when the sequence
    reaches it, so a consumer that stops early pays only for what it
    read. *)

val pseudosphere_failing : Simplex.t -> Pid.Set.t -> Psph.t
(** The single symbolic pseudosphere for failure set [K]. *)

val lemma14_rhs : Simplex.t -> Pid.Set.t -> Complex.t
(** [psi(S \ K; 2^K)] with the paper's labels: the subset of [K] a
    survivor did {e not} hear from. *)

val lemma14_map : k:Pid.Set.t -> Vertex.t -> Vertex.t
(** [L (P_i, M) = (x_i, K - ids M)] from the proof of Lemma 14. *)

val lemma14_holds : Simplex.t -> Pid.Set.t -> bool

val lemma15_lhs : Simplex.t -> Pid.Set.t list -> Complex.t
(** For the ordered failure sets [K_0 < ... < K_t], the intersection
    [(U_{i<t} S^1_{K_i}) /\ S^1_{K_t}] (computed on realized complexes). *)

val lemma15_rhs : Simplex.t -> Pid.Set.t list -> Complex.t
(** The paper's right-hand side: [U_{P in K_t} psi(S \ K_t; 2^{K_t - P})]
    — realized with intrinsic labels so it can be compared with
    {!lemma15_lhs} directly. *)

val lemma15_holds : Simplex.t -> Pid.Set.t list -> bool

val lemma16_expected_connectivity : m:int -> n:int -> k:int -> int
(** Lemma 16/17: [S^r(S^m)] is [(m - (n - k) - 1)]-connected (one round
    needs [n >= 2k]; [r] rounds need [n >= rk + k]). *)

val theorem18_lower_bound : n:int -> f:int -> k:int -> int
(** The Theorem 18 round lower bound for synchronous f-resilient k-set
    agreement with [n + 1] processes: [floor (f/k) + 1] when [n > f + k],
    and [floor (f/k)] when [n <= f + k]. *)
