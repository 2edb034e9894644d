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

   Distinct branches of the recursion reach identical (round, state)
   pairs — e.g. the failure-free facet of every branch in which all
   survivors heard everything — so results are memoized per call on
   [(r, s)] (the branch generator is fixed for the whole call).

   In the last round the continuation of every facet is the facet's own
   closure, and a complex is the union of its facets' closures, so [r = 1]
   unions the branch complexes themselves instead of re-closing each
   facet. *)
(* vertex labels may hold [Pid.Set]s, so hash structurally, not
   polymorphically *)
module Memo = Hashtbl.Make (struct
  type t = int * Simplex.t

  let equal (r, s) (r', s') = r = r' && Simplex.equal s s'

  let hash (r, s) = Array.fold_left Intern.vertex_hash r (Simplex.vertex_array s)
end)

let compose ~branches r s =
  let memo = Memo.create 97 in
  let rec go r s =
    if r <= 0 then Complex.of_simplex s
    else
      let key = (r, s) in
      match Memo.find_opt memo key with
      | Some c -> c
      | None ->
          (* one trace event per distinct (rounds-remaining, state) node
             actually expanded; memo hits are silent *)
          Obs.event "model.round" ~attrs:[ ("remaining", Jsonl.int r) ];
          let c =
            List.fold_left
              (fun acc b ->
                if r = 1 then Complex.union acc b
                else
                  List.fold_left
                    (fun acc t -> Complex.union acc (go (r - 1) t))
                    acc (Complex.facets b))
              Complex.empty (branches s)
          in
          Memo.add memo key c;
          c
  in
  go r s
