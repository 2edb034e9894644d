open Psph_obs
open Psph_topology

let over_facets step c =
  List.fold_left
    (fun acc s -> Complex.union acc (step s))
    Complex.empty (Complex.facets c)

(* The r-round iteration must recurse on the facets of every branch
   complex separately, not on the facets of their union: a facet of one
   branch may be a mere face of another branch's facet (e.g. an exact-K
   synchronous facet in which every survivor heard all of K is a face of
   the failure-free facet), yet its continuations are real executions.

   The result is the union of what the leaves of that recursion
   contribute, and a (rounds-remaining, state) node contributes the same
   wherever it is reached.  Distinct branches do reach identical (r, s)
   pairs — e.g. the failure-free facet of every branch in which all
   survivors heard everything — so each call keeps a visited set of
   [(r, s)] (the branch generator is fixed for the whole call) and
   expands a node once, unioning straight into one accumulator: union is
   idempotent, so skipping a revisit loses nothing, and no per-node
   complex stays live until the call returns.

   In the last round the continuation of every facet is the facet's own
   closure, and a complex is the union of its facets' closures, so [r = 1]
   unions the branch complexes themselves instead of re-closing each
   facet. *)
(* vertex labels may hold [Pid.Set]s, so hash structurally, not
   polymorphically *)
module Visited = Hashtbl.Make (struct
  type t = int * Simplex.t

  let equal (r, s) (r', s') = r = r' && Simplex.equal s s'

  let hash (r, s) = Array.fold_left Intern.vertex_hash r (Simplex.vertex_array s)
end)

let compose ~branches r s =
  if r <= 0 then Complex.of_simplex s
  else begin
    let visited = Visited.create 97 in
    let acc = ref Complex.empty in
    let rec go r s =
      (* [replace] hashes the node once; the table grows only on a first
         visit *)
      let n = Visited.length visited in
      Visited.replace visited (r, s) ();
      if Visited.length visited > n then begin
        (* one trace event per distinct (rounds-remaining, state) node
           actually expanded; revisits are silent *)
        Obs.event "model.round" ~attrs:[ ("remaining", Jsonl.int r) ];
        List.iter
          (fun b ->
            if r = 1 then acc := Complex.union !acc b
            else List.iter (go (r - 1)) (Complex.facets b))
          (branches s)
      end
    in
    go r s;
    !acc
  end
