(** Round-by-round suspicion structures (Gafni's unification, Section 2).

    Gafni's round-by-round failure detector presents every timing model the
    same way: in each round a process receives the states of the processes
    it does {e not} suspect, and the models differ only in which suspect
    sets the detector may output.  In pseudosphere terms a suspicion
    structure {e is} a value assignment: the paper's Lemmas 11 and 14 fall
    out as instances.

    This module makes that precise and machine-checked: a {!structure}
    assigns each process its set of allowed suspect sets; {!one_round}
    builds the corresponding complex; and the [agrees_*] checks verify that
    the asynchronous and synchronous one-round complexes are exactly the
    RRFD complexes for the appropriate structures. *)

open Psph_topology

type structure = Pid.t -> Pid.Set.t list
(** For each process, the suspect sets the detector may output in this
    round (each a set of {e other} processes). *)

val async_structure : n:int -> f:int -> alive:Pid.Set.t -> structure
(** Asynchronous f-resilience: any suspect set of size at most [f] not
    containing oneself (so at least [n - f + 1] states are received). *)

val one_round : Simplex.t -> structure -> Complex.t
(** One RRFD round from the global state [S]: each process's new view
    records the states of the unsuspected processes.  Suspect sets leaving
    fewer than one heard process are allowed but vacuous (a process always
    hears itself). *)

val agrees_with_async : n:int -> f:int -> Simplex.t -> bool
(** [one_round s (async_structure ...)] equals
    [Async_complex.one_round ~n ~f s].  The "at most f suspects" detector
    matches the "at least n - f + 1 messages" rule only under full
    participation.  @raise Invalid_argument on a proper face of [P^n]. *)

val agrees_with_sync : Simplex.t -> Pid.Set.t -> bool
(** [one_round (S \ K)] under the synchronous detector with failure set
    [K] (suspects are a subset of [K]: live processes are never
    suspected, crashed ones may still be heard) equals
    [Sync_complex.one_round_failing s k]. *)
