(** Executions: applying round schedules to full-information states.

    A global state is a map from alive processes to their views.  Applying
    a schedule produces the next global state; iterating over all schedules
    enumerates the paper's well-behaved round-based executions. *)

open Psph_topology

type global = View.t Pid.Map.t
(** The local states of the currently alive processes. *)

val initial : (Pid.t * Value.t) list -> global
(** Initial global state from an input assignment. *)

val apply_async : global -> Round_schedule.async -> global
(** One asynchronous round: every alive process receives the states of its
    heard set. *)

val apply_sync : global -> Round_schedule.sync -> global
(** One synchronous round: the schedule's [failed] processes disappear;
    each survivor receives the states of all survivors plus its heard
    subset of [failed]. *)

val apply_semi : p:int -> n:int -> global -> Round_schedule.semi -> global
(** One semi-synchronous round: the pattern's processes disappear; each
    survivor folds its chosen view vector into a {!View.Timed_round}. *)

val run_async : n:int -> f:int -> rounds:int -> global -> global list
(** All global states reachable after the given number of asynchronous
    rounds (every process alive at the start participates throughout). *)

val run_sync : k:int -> rounds:int -> global -> global list
(** All global states reachable when at most [k] processes crash per
    round. *)

val run_semi : k:int -> p:int -> n:int -> rounds:int -> global -> global list
(** Semi-synchronous analogue of {!run_sync}. *)

val alive : global -> Pid.Set.t

