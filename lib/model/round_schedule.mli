(** One-round delivery schedules for the three timing models.

    A schedule fixes everything the adversary controls in one round:
    in the {e asynchronous} model, which [>= n - f + 1] same-round messages
    each process receives (Section 6); in the {e synchronous} model, which
    processes crash and which of their messages are still delivered to each
    survivor (Section 7); in the {e semi-synchronous} model, the failure
    pattern [F] and, per survivor, a view from [[F]] (Section 8).

    Enumerating all schedules for small systems yields exactly the
    well-behaved executions whose global states the paper's pseudosphere
    formulas describe; the [Enumerated] cross-checks in the core library
    verify those isomorphisms (Lemmas 11, 14, 19). *)

open Psph_topology

type async = Pid.Set.t Pid.Map.t
(** Per alive process, the set of processes heard from this round
    (including itself). *)

type sync = {
  failed : Pid.Set.t;  (** exactly the processes crashing this round *)
  heard_faulty : Pid.Set.t Pid.Map.t;
      (** per survivor, the subset of [failed] whose last message arrived *)
}

type semi = {
  pat : Failure.pattern;
  choice : int array Pid.Map.t;
      (** per survivor, a view vector from [[pat]] *)
}

val async_schedules : n:int -> f:int -> alive:Pid.Set.t -> async list
(** All asynchronous one-round schedules: every alive process hears from a
    set [M] with [self in M], [M subset alive] and [|M| >= n - f + 1].
    Empty if [|alive| < n - f + 1]. *)

val async_count : n:int -> f:int -> alive_count:int -> int
(** Closed-form count of {!async_schedules}. *)

val sync_schedules : k:int -> alive:Pid.Set.t -> sync list
(** All synchronous one-round schedules with at most [k] crashes, grouped
    in the paper's size-then-lex order of failure sets. *)

val sync_schedules_for : failed:Pid.Set.t -> alive:Pid.Set.t -> sync list
(** The synchronous schedules in which exactly [failed] crashes. *)

val sync_count : k:int -> alive_count:int -> int
(** Closed-form count of {!sync_schedules}. *)

val semi_schedules : k:int -> p:int -> n:int -> alive:Pid.Set.t -> semi list
(** All semi-synchronous one-round schedules with at most [k] crashes and
    [p] microrounds, ordered by failure set then by pattern (reverse-lex),
    as in Section 8. *)

val semi_schedules_for :
  pat:Failure.pattern -> p:int -> n:int -> alive:Pid.Set.t -> semi list
(** The semi-synchronous schedules with exactly the given failure pattern. *)

val semi_count : k:int -> p:int -> alive_count:int -> int
(** Closed-form count of {!semi_schedules}. *)

type digraph = Pid.Set.t Pid.Map.t
(** A per-round communication digraph of a directed dynamic network
    (Rincon Galeana et al.), as in-neighborhoods: [digraph p] is the set
    of processes [p] receives from this round, always including [p]
    itself.  The same shape as {!async}, but chosen by a message
    adversary rather than a failure discipline. *)

val digraphs : alive:Pid.Set.t -> digraph list
(** Every communication digraph on [alive]: each process independently
    hears from any subset of the others (plus itself). *)

val rooted : digraph -> bool
(** Some process reaches every process — the weakest adversary class
    under which broadcast (and hence consensus) stays solvable. *)

val strongly_connected : digraph -> bool
(** Every process reaches every process. *)

val digraph_count : alive_count:int -> int
(** Closed-form count of {!digraphs}. *)
