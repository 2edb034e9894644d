open Psph_topology
open Psph_model

let output_vertex p v = Vertex.proc p (Value.to_label v)

let kset_output ~n ~k ~values =
  (* facets: choose <= k values and a surjection-ish assignment; simplest:
     enumerate value tuples with <= k distinct entries *)
  let pids = Pid.all n in
  let rec tuples = function
    | [] -> [ [] ]
    | _ :: rest ->
        let tails = tuples rest in
        List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) values
  in
  let facets =
    tuples pids
    |> List.filter (fun tuple ->
           Value.Set.cardinal (Value.Set.of_list tuple) <= k)
    |> List.map (fun tuple ->
           Simplex.of_list (List.map2 output_vertex pids tuple))
  in
  Complex.of_facets facets

let consensus_output ~n ~values = kset_output ~n ~k:1 ~values

let solve ?(budget = 20_000_000) ~complex ~output ~carrier () =
  (* domain: output vertices with the same colour, allowed by the carrier,
     and actually present in the output complex *)
  let domain v =
    match Vertex.pid v with
    | None -> []
    | Some p ->
        carrier v
        |> List.filter_map (fun value ->
               let w = output_vertex p value in
               if Complex.mem_vertex w output then Some w else None)
  in
  (* the image of the assigned part must be a simplex of the output *)
  Decision.search ~budget ~complex ~domain ~facet_ok:(fun image _ ->
      Complex.mem (Simplex.of_list image) output)
