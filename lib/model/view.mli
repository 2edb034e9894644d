(** Full-information local states.

    A process's local state is its input value and the sequence of messages
    received so far (Section 4).  In a full-information protocol every
    message carries the sender's entire state, so after each round a state
    is the previous state plus the (sender, sender-state) pairs received.
    In the semi-synchronous model each received record additionally carries
    the microround of the sender's last message (Section 8).

    Views are the vertex decorations of every protocol complex: two
    vertices are equal exactly when the corresponding local states are
    indistinguishable. *)

open Psph_topology

type t =
  | Init of Value.t  (** initial state: the input value *)
  | Round of { prev : t; heard : (Pid.t * t) list }
      (** synchronous / asynchronous round: states received, sorted by
          sender (always includes the process itself) *)
  | Timed_round of { p : int; prev : t; heard : (Pid.t * int * t) list }
      (** semi-synchronous round with [p] microrounds: [(sender, mu,
          state)] with [mu] the microround of the sender's last received
          message ([mu = p] for a process heard all round) *)

val init : Value.t -> t

val round : prev:t -> heard:(Pid.t * t) list -> t
(** Sorts [heard] by sender.  @raise Invalid_argument on duplicate
    senders. *)

val timed_round : p:int -> prev:t -> heard:(Pid.t * int * t) list -> t
(** Sorts [heard] by sender.  @raise Invalid_argument on duplicate senders
    or [mu] outside [0..p]. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val rounds : t -> int
(** Number of completed rounds. *)

val input : t -> Value.t
(** The process's own input value. *)

val heard_pids : t -> Pid.Set.t
(** Senders heard from in the most recent round (empty for [Init]). *)

val seen_values : t -> Value.Set.t
(** All input values present in the state, transitively: the values the
    process "knows".  For a full-information protocol this is exactly
    [vals] of the inputs it can safely decide on. *)

val seen_pids : t -> Pid.Set.t
(** All processes whose state occurs in the view, transitively. *)

val to_label : t -> Label.t
(** Injective encoding into the universal label type, so views can decorate
    complex vertices. *)

val of_label : Label.t -> t
(** Inverse of {!to_label}.  @raise Invalid_argument on foreign labels. *)

val round_label : prev:Label.t -> heard:(Pid.t * Label.t) list -> Label.t
(** [round_label ~prev:(to_label v) ~heard:[(q, to_label w); ...]] is
    [to_label (round ~prev:v ~heard:[(q, w); ...])], built without decoding
    or copying: [prev] and the heard labels become sub-labels of the
    result as they are, so a round's vertex labels share the previous
    round's labels physically.  Checks and sorts [heard] as {!round}
    does. *)

val timed_round_label :
  p:int -> prev:Label.t -> heard:(Pid.t * int * Label.t) list -> Label.t
(** The same for {!timed_round}. *)
