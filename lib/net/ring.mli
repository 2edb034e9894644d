(** The consistent-hash ring, as pure arithmetic.

    A ring is built from an ordered list of node names (for the router:
    backend ["host:port"] strings): each node contributes 64 virtual
    points — the hashes of ["name#i"] — and the sorted point array is
    the ring.  The hash is FNV-1a with Murmur3's [fmix64] finalizer,
    which spreads names that differ only in their last characters
    around the ring.  A key hashes to a point and walks clockwise; the
    sequence of {b distinct} nodes met on that walk is the key's
    preference order, so the first node is its primary and the next
    [R-1] are its replicas.

    Everything here is immutable and deterministic (a fixed hash, not
    [Hashtbl.hash], so placement agrees across processes and runs),
    which is what makes replica placement testable as plain arithmetic:
    the qcheck suite checks distinctness and stability when a node is
    added to or removed from the name list directly against {!order},
    with no sockets involved.

    Because a node's points depend only on its own name, a ring built
    from the same names plus one more keeps every old point: the keys
    whose walk now meets the new node first are exactly the key range
    it takes over, and no other key changes its primary. *)

type t

val make : string list -> t
(** Node indexes are positions in the list.  @raise Invalid_argument on
    an empty list or a duplicate name. *)

val size : t -> int

val name : t -> int -> string

val order : t -> string -> int list
(** All node indexes in clockwise-walk order from the key's hash: the
    failover/preference order, whose first [R] entries are the replica
    set.  Length [size t]; every node appears exactly once. *)
