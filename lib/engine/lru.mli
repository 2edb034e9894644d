(** A size-bounded least-recently-used memo table.

    Lookup promotes to most-recently-used; insertion beyond capacity evicts
    the least-recently-used entry.  Hit/miss/eviction accounting flows
    through the {!Psph_obs.Obs} registry under the [metrics] name prefix
    ([<metrics>.hits], [<metrics>.misses], [<metrics>.evictions]) — there
    are no private counters, so instances created with the same prefix
    share totals.  Keys are hashed structurally (polymorphic [Hashtbl]);
    use key types whose structural equality is semantic equality, like
    {!Key.t}.  Not thread-safe: callers serialize access. *)

type ('k, 'v) t

val create : ?metrics:string -> capacity:int -> unit -> ('k, 'v) t
(** [metrics] (default ["lru"]) prefixes the registered counter names.
    @raise Invalid_argument if [capacity < 1]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Counts a hit (and promotes) or a miss. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Presence only: no hit/miss accounting, no promotion. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite, promoting to MRU; evicts the LRU entry when the
    table is full. *)

val length : ('k, 'v) t -> int

val capacity : ('k, 'v) t -> int

val hits : ('k, 'v) t -> int
(** Current value of the shared [<metrics>.hits] counter (likewise below). *)

val misses : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Entries in MRU-to-LRU order (used to flush the persistent store). *)
