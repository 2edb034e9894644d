open Psph_obs
open Psph_topology

type round = Vertex_table.t -> Simplex.t -> (int array -> unit) -> unit

(* The r-round iteration must recurse on the facets of every branch
   separately, not on the facets of their union: a facet of one branch
   may be a mere face of another branch's facet (e.g. an exact-K
   synchronous facet in which every survivor heard all of K is a face of
   the failure-free facet), yet its continuations are real executions.  A
   [round] emits the facets of every branch, so recursing on each emitted
   facet covers them all.

   The result is the union of what the leaves of that recursion
   contribute, and a (rounds-remaining, state) node contributes the same
   wherever it is reached.  Distinct branches do reach identical (r, s)
   pairs — e.g. the failure-free facet of every branch in which all
   survivors heard everything — so a build keeps a visited set of
   [(r, ids)] and expands a node once: union is idempotent, so skipping a
   revisit loses nothing.  A state's vertices are interned once, so its
   ids identify it and the set hashes small ints, never labels.

   In the last round the continuation of every facet is the facet's own
   closure, so [r = 1] adds each emitted facet's closure to the table. *)
module Visited = Hashtbl.Make (struct
  type t = int * int array

  let equal ((r : int), a) (r', b) = r = r' && a = b

  let hash (r, a) = Array.fold_left (fun h id -> (h * 0x01000193) lxor id) r a land max_int
end)

let compose round r starts =
  let t = Vertex_table.create () in
  let visited = Visited.create 16 in
  let rec go r ids =
    if r <= 0 then Vertex_table.add_facet t ids
    else begin
      (* [replace] hashes the node once; the table grows only on a first
         visit *)
      let n = Visited.length visited in
      Visited.replace visited (r, ids) ();
      if Visited.length visited > n then begin
        (* one trace event per distinct (rounds-remaining, state) node
           actually expanded; revisits are silent *)
        Obs.event "model.round" ~attrs:[ ("remaining", Jsonl.int r) ];
        round t (Vertex_table.simplex t ids) (fun facet ->
            if r = 1 then Vertex_table.add_facet t facet
            else go (r - 1) (Array.copy facet))
      end
    end
  in
  List.iter
    (fun s -> go r (Array.map (Vertex_table.intern t) (Simplex.vertex_array s)))
    starts;
  t

let rounds round r s = Vertex_table.complex (compose round r [ s ])

let over_inputs round r inputs =
  Vertex_table.complex (compose round r (Complex.facets inputs))
