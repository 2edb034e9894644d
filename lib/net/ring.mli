(** The consistent-hash ring, as pure arithmetic.

    A ring is built from an ordered list of node names (for the router:
    backend ["host:port"] strings): each node contributes [vnodes]
    virtual points — the hashes of ["name#i"] — and the sorted point
    array is the ring.  The hash is FNV-1a with Murmur3's [fmix64]
    finalizer, which spreads names that differ only in their last
    characters around the ring.  A key hashes to a point and walks
    clockwise; the sequence of {b distinct} nodes met on that walk is
    the key's preference order, so the first node is its primary and
    the next [R-1] are its replicas.

    Everything here is immutable and deterministic (a fixed hash, not
    [Hashtbl.hash], so placement agrees across processes and runs),
    which is what makes replica placement testable as plain arithmetic:
    the qcheck suite checks distinctness, stability under unrelated
    join/leave, and the only-the-new-range-moves law directly against
    {!order}/{!owners} with no sockets involved.

    Because a node's points depend only on its own name, [make names]
    and [add (make names) name] agree point-for-point: joining a node
    inserts its points and moves nothing else — the keys whose walk now
    meets the new node first are exactly the key range it takes
    ownership of. *)

type t

val make : ?vnodes:int -> string list -> t
(** [vnodes] (default 64) virtual points per node.  Node indexes are
    positions in the list.  @raise Invalid_argument on an empty list or
    a duplicate name. *)

val add : t -> string -> t
(** A new ring with the node appended (index [size t]).  Equal, point
    for point, to the ring {!make} builds from [t]'s names with [name]
    appended.
    @raise Invalid_argument if the name is already a member. *)

val size : t -> int

val name : t -> int -> string

val index : t -> string -> int option

val order : t -> string -> int list
(** All node indexes in clockwise-walk order from the key's hash: the
    failover/preference order.  Length [size t]; every node appears
    exactly once. *)

val owners : t -> r:int -> string -> int list
(** The first [min r (size t)] entries of {!order}: the replica set.
    @raise Invalid_argument if [r < 1]. *)

val successor : t -> int -> int option
(** The distinct node met first walking clockwise from node [i]'s
    lowest virtual point — the node that owned the start of [i]'s key
    range before [i] joined, and therefore the natural peer for a
    joining node to warm from.  [None] on a one-node ring. *)
