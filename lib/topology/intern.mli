(** Pure structural hashes of labels and vertices.

    Vertex labels can contain [Pid.Set.t] values, so polymorphic hashing
    and equality are unsound on {!Vertex.t}; these hashes recurse by
    structure, folding sets in canonical element order, and are meant to
    be paired with {!Vertex.equal}.  No state is kept: equal values hash
    equally in every process, so the hashes serve both per-computation
    tables ({!Simplex_index}) and content addressing that must survive
    serialization (see [Psph_engine.Key]). *)

val vertex_hash : int -> Vertex.t -> int
(** [vertex_hash seed v]: pure structural hash of a vertex, folding
    [Pid.Set] values in its label in canonical element order.  Equal
    vertices hash equally for every seed. *)
