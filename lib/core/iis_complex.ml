open Psph_topology
open Psph_model

let view_of s q seen =
  let prev =
    match Simplex.label_of q s with
    | Some l -> l
    | None -> invalid_arg "Iis_complex: pid outside simplex"
  in
  let heard =
    Pid.Set.elements seen
    |> List.map (fun r ->
           match Simplex.label_of r s with
           | Some l -> (r, l)
           | None -> invalid_arg "Iis_complex: seen pid outside simplex")
  in
  View.round_label ~prev ~heard

(* One facet per schedule.  A view recurs across many schedules, so each
   [(process, seen set)] is built and interned once; a schedule's views in
   pid order are its facet in sorted vertex order. *)
let round tbl s emit =
  let ids = Hashtbl.create 16 in
  let id q seen =
    let key = (q, List.map Pid.to_int (Pid.Set.elements seen)) in
    match Hashtbl.find_opt ids key with
    | Some i -> i
    | None ->
        let i = Vertex_table.intern tbl (Vertex.proc q (view_of s q seen)) in
        Hashtbl.add ids key i;
        i
  in
  List.iter
    (fun schedule ->
      let views = Pid.Map.bindings (Snapshot.views_of_schedule schedule) in
      emit (Array.of_list (List.map (fun (q, seen) -> id q seen) views)))
    (Snapshot.schedules (Simplex.ids s))

let one_round s = Carrier.rounds round 1 s

let rounds ~r s = Carrier.rounds round r s

let over_inputs ~r inputs = Carrier.over_inputs round r inputs

let enumerated ~r inputs =
  Enumerated.of_globals (Snapshot.run ~rounds:r (Execution.initial inputs))

let isomorphic_to_chromatic s =
  let iis = one_round s in
  let chromatic = Subdivision.chromatic_of_simplex s in
  (* the chromatic subdivision labels a vertex with (base label, seen ids);
     map the IIS full view down to that form *)
  let mu = function
    | Vertex.Proc (q, l) -> (
        match View.of_label l with
        | View.Round { heard; _ } ->
            let seen = Pid.Set.of_list (List.map fst heard) in
            let base =
              match Simplex.label_of q s with Some b -> b | None -> Label.Unit
            in
            Vertex.proc q (Label.Pair (base, Label.Pid_set seen))
        | View.Init _ | View.Timed_round _ -> Vertex.proc q l)
    | v -> v
  in
  Simplicial_map.is_isomorphism_via mu iis chromatic

let subcomplex_of_async ~n s =
  Complex.subcomplex (one_round s) (Async_complex.one_round ~n ~f:n s)
