(** Bit-packed rank over the two-element field Z/2.

    Columns are [Sys.int_size]-bit words, so the column sum (symmetric
    difference) runs word-at-a-time, and reduction finds the pivot of a
    row in O(1) instead of re-scanning column lists.  This is the engine
    behind {!Homology}; the tests keep a list-based reference elimination
    and property-test the two against each other.

    Past one word of rows the matrix is never stored (as in Ripser,
    Bauer 2021): a {!reducer} takes one column at a time — {!push} its
    rows, then {!reduce} it against the pivots found so far — and keeps
    the column only if it becomes a pivot.  The pivot whose lowest row is
    [r] is zero above word [r / Sys.int_size], so it is stored in just
    those words, one pivot after another, found through an offset per
    row.  Pivots have distinct lowest rows, so one store allocated with
    the reducer holds them all in at most the smaller of
    [rows * (rows / Sys.int_size + 1) / 2] words and the [cols] columns'
    own words; nothing is allocated per column. *)

type reducer

val reducer : ?lows:Bytes.t -> rows:int -> cols:int -> unit -> reducer
(** An empty reduction over [rows] rows, of at most [cols] columns.  When
    [lows] is given (at least [rows] bytes), {!reduce} sets byte [r] to
    ['\001'] for every row [r] that becomes the lowest one of a pivot —
    the pivot rows, {!rank} of them; other bytes are left as they are.
    {!Homology} clears with them (see [rank_jobs]). *)

val push : reducer -> int -> unit
(** [push t row] sets [row] in the column being built.
    @raise Invalid_argument if the row is out of range. *)

val reduce : reducer -> unit
(** Reduce the column built since the last [reduce] (the empty column if
    nothing was pushed) against the pivots so far; if it does not reduce
    to zero it becomes the pivot of its lowest row.  The next {!push}
    starts a new column.  At most [cols] columns may be reduced. *)

val rank : reducer -> int
(** The number of pivots so far: the rank of the columns reduced. *)

val rank_of_columns : rows:int -> int list list -> int
(** The rank of the matrix with the given sparse columns, each the list
    of its nonzero row indices, through one {!reducer}. *)

val rank_words : ?lows:Bytes.t -> rows:int -> int array -> int
(** Single-word fast path: each array element is one column, encoded as a
    bit mask over at most [Sys.int_size] rows.  [lows] is marked as by
    {!reducer}.
    @raise Invalid_argument if [rows > Sys.int_size]. *)
