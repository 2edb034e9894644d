(** Dense bit-packed matrices over the two-element field Z/2.

    Columns are arrays of [Sys.int_size]-bit words, so the column sum
    (symmetric difference) runs word-at-a-time, and the rank computation
    keeps an O(1) pivot table indexed by row instead of re-scanning column
    lists.  This is the engine behind {!Homology}; the tests keep a
    list-based reference elimination and property-test the two against
    each other. *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix of the given shape. *)

val dims : t -> int * int
(** [(rows, cols)]. *)

val set : t -> row:int -> col:int -> unit
(** Set an entry to 1.  @raise Invalid_argument if the row is out of range. *)

val get : t -> row:int -> col:int -> bool

val of_columns : rows:int -> int list list -> t
(** Build from sparse columns, each the list of its nonzero row
    indices. *)

val rank : ?lows:Bytes.t -> t -> int
(** Rank over Z/2.  The columns are reduced in place, so afterwards [t]
    holds the reduced matrix and no column is copied: build a matrix to
    rank it.  When [lows] is given (at least [rows] bytes), byte
    [r] is set to ['\001'] for every row [r] that is the lowest one of a
    reduced column — the pivot rows, [rank] of them; other bytes are left
    as they are.  {!Homology} clears with them (see [rank_jobs]). *)

val rank_of_columns : rows:int -> int list list -> int
(** [rank_of_columns ~rows cols = rank (of_columns ~rows cols)]. *)

val rank_words : ?lows:Bytes.t -> rows:int -> int array -> int
(** Single-word fast path: each array element is one column, encoded as a
    bit mask over at most [Sys.int_size] rows.  [lows] is marked as by
    {!rank}.
    @raise Invalid_argument if [rows > Sys.int_size]. *)
