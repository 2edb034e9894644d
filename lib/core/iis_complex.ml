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

let one_round s =
  let participants = Simplex.ids s in
  let facets =
    Snapshot.schedules participants
    |> List.map (fun schedule ->
           let views = Snapshot.views_of_schedule schedule in
           Simplex.of_list
             (List.map
                (fun (q, seen) ->
                  Vertex.proc q (view_of s q seen))
                (Pid.Map.bindings views)))
  in
  Complex.of_facets facets

let rounds ~r s = Carrier.compose r s ~branches:(fun s -> [ one_round s ])

let over_inputs ~r inputs = Carrier.over_facets (rounds ~r) inputs

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
