(** Reduced simplicial homology over Z/2, and homological connectivity.

    Connectivity in the paper (Definition 1) is topological
    [k]-connectivity.  We compute the homological counterpart: vanishing of
    the reduced Z/2 homology groups through dimension [k].  For the
    complexes the paper manipulates — pseudospheres and the shellable unions
    built from them, all homotopy equivalent to wedges of spheres — the two
    notions agree, and the Mayer–Vietoris engine ({!Mayer_vietoris})
    independently replays the paper's genuine connectivity proofs. *)

val rank_jobs :
  ?max_dim:int ->
  ?index:Simplex_index.t ->
  Complex.t ->
  int array * (int * (unit -> int)) list
(** [rank_jobs c] is [(r, jobs)]: [r] is the boundary-rank array with
    [r.(0)] already filled in (the augmentation rank), and [jobs] is one
    [(d, compute)] pair per remaining dimension, where [compute ()] is the
    rank of the boundary operator from [d]-chains to [(d-1)]-chains.  The
    caller stores [compute ()] into [r.(d)].

    The jobs are listed top-down, from the highest dimension to 1, and
    list order enables clearing: the job for [d] records which
    [(d-1)]-simplexes it found positive (the pivot rows of its reduced
    matrix), and the job for [d - 1], run after it, builds and reduces
    only the other columns, since those reduce to zero.  Any order is
    still correct, on any domain: a job whose upper neighbour has not
    finished reduces every column.  The thunks close over one
    {!Simplex_index} built eagerly; the query engine evaluates them in
    list order in the calling thread.

    Each thunk runs in a [homology.rank] span (attr [dim]) in the
    {!Psph_obs.Obs} substrate, so per-dimension elimination cost shows up
    in traces; when a sink is live the span also carries [columns] (the
    columns built) and [cleared] (the columns clearing skipped), which
    add up to the number of [d]-simplexes.  [index], when given, must be
    an index of [c] (as {!Simplex_index.create} builds it) reaching the
    dimensions needed; it is used instead of building a new one.
    @raise Invalid_argument if it stops below them. *)

val of_ranks : top:int -> Complex.t -> int array -> int array * int
(** [of_ranks ~top c r], for [r] the boundary ranks of [c] filled in from
    [rank_jobs ~max_dim:top c], is [(reduced, k)]: the reduced Betti numbers
    of dimensions [0 .. min top (dim c)] and the connectivity they show,
    searched up to [top] — the first [d] with [reduced.(d) <> 0] gives
    [d - 1], and [top] if there is none.  The empty complex gives
    [([||], -2)].  {!reduced_betti}, {!connectivity} and the query engine
    all derive their answers here. *)

val reduced_betti : ?max_dim:int -> Complex.t -> int array
(** [reduced_betti c] is the array of reduced Z/2 Betti numbers
    [b~_0 .. b~_dim].  For the empty complex the result is [[||]].  If
    [max_dim] is given, only dimensions [<= max_dim] are computed (entries
    above are absent). *)

val betti : ?max_dim:int -> Complex.t -> int array
(** Ordinary (unreduced) Betti numbers: [betti.(0)] counts components. *)

val connectivity : ?cap:int -> Complex.t -> int
(** The largest [k] such that the complex is homologically [k]-connected:
    [-2] if empty, otherwise the largest [k] with reduced Betti numbers
    vanishing in dimensions [0..k] (so a nonempty disconnected complex has
    connectivity [-1]).  Searches up to [cap] (default: the complex's
    dimension); a complex whose reduced homology vanishes through its
    dimension is reported with connectivity [cap]. *)

val connectivity_of_betti : int array -> int
(** The connectivity shown by a full unreduced Betti vector, as {!betti}
    returns it for dimensions [0 .. dim c]: [-2] for the empty vector,
    otherwise the rule of {!of_ranks} on the reduced numbers (beta_0 - 1,
    then the rest) searched up to [dim c].  For any complex [c],
    [connectivity_of_betti (betti c) = connectivity c]; this is how a
    reply that carries Betti numbers but no connectivity is completed. *)

val is_k_connected : Complex.t -> int -> bool
(** [is_k_connected c k]: homologically [k]-connected in the paper's sense —
    [k <= -2] always holds, [k = -1] means nonempty, and [k >= 0] means
    nonempty with vanishing reduced homology through dimension [k]. *)

val euler_from_betti : Complex.t -> int
(** Alternating sum of unreduced Betti numbers; equals {!Complex.euler} on
    every complex (a consistency check used by tests). *)
