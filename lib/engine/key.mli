(** Canonical content addresses for complexes.

    [of_complex] hashes the full simplex set in canonical order with the
    pure structural vertex hash from {!Psph_topology.Intern} (folded from
    a {!Psph_topology.Simplex_index}, which hashes each vertex once), so
    structurally equal complexes get equal keys regardless of construction
    history or process — the property the memo store's cache slots and
    on-disk persistence both rely on.  (Hashing the set rather than the
    facets skips the expensive maximality extraction; see key.ml.)  Keys
    are 124 bits (two 62-bit halves); collisions are treated as
    impossible. *)

open Psph_topology

type t

val of_complex : Complex.t -> t
(** [of_index (Simplex_index.create c)]. *)

val of_index : Simplex_index.t -> t
(** The key of the complex a complete index numbers, folded from the
    index's per-vertex hashes in its row order — the same fold as
    {!of_complex}, with no vertex hashed twice.  A caller that needs the
    index anyway (the engine eliminates over it on a miss) keys through
    it.  @raise Invalid_argument if the index was cut by [max_dim]. *)

val of_string : string -> t
(** Key a canonical spec string (the same two-accumulator fold over its
    bytes).  Identifies answers derived symbolically, without realizing
    the complex the string denotes. *)

val equal : t -> t -> bool

val to_hex : t -> string
(** 32 lowercase hex digits; the wire and on-disk representation. *)

val of_hex_opt : string -> t option
