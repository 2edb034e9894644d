open Psph_topology
open Psph_model

type 'a outcome = Solution of 'a Vertex.Map.t | Impossible | Unknown

exception Out_of_budget

let search ~budget ~complex ~domain ~facet_ok =
  let vertices = Array.of_list (Complex.vertices complex) in
  let nv = Array.length vertices in
  if nv = 0 then Solution Vertex.Map.empty
  else begin
    let index =
      let m = ref Vertex.Map.empty in
      Array.iteri (fun i v -> m := Vertex.Map.add v i !m) vertices;
      !m
    in
    let domains = Array.map (fun v -> Array.of_list (domain v)) vertices in
    (* facets as index arrays; per vertex, the facets containing it *)
    let facets =
      Complex.facets complex
      |> List.map (fun s ->
             Simplex.vertices s
             |> List.map (fun v -> Vertex.Map.find v index)
             |> Array.of_list)
      |> Array.of_list
    in
    let facets_of = Array.make nv [] in
    Array.iteri
      (fun fi f -> Array.iter (fun vi -> facets_of.(vi) <- fi :: facets_of.(vi)) f)
      facets;
    (* order: most constrained (smallest domain), then most facets *)
    let order = Array.init nv (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = Int.compare (Array.length domains.(a)) (Array.length domains.(b)) in
        if c <> 0 then c
        else Int.compare (List.length facets_of.(b)) (List.length facets_of.(a)))
      order;
    let assignment = Array.make nv None in
    let nodes = ref 0 in
    (* the facet's assigned values, and the domains of its open vertices *)
    let consistent fi =
      let assigned, open_domains =
        Array.fold_right
          (fun vi (assigned, open_domains) ->
            match assignment.(vi) with
            | Some a -> (a :: assigned, open_domains)
            | None -> (assigned, domains.(vi) :: open_domains))
          facets.(fi) ([], [])
      in
      facet_ok assigned open_domains
    in
    let rec go pos =
      incr nodes;
      if !nodes > budget then raise Out_of_budget;
      if pos >= nv then true
      else begin
        let vi = order.(pos) in
        Array.exists
          (fun a ->
            assignment.(vi) <- Some a;
            if List.for_all consistent facets_of.(vi) && go (pos + 1) then true
            else begin
              assignment.(vi) <- None;
              false
            end)
          domains.(vi)
      end
    in
    match go 0 with
    | true ->
        let map =
          Array.to_seq (Array.mapi (fun i v -> (vertices.(i), v)) assignment)
          |> Seq.filter_map (fun (v, a) -> Option.map (fun a -> (v, a)) a)
          |> Vertex.Map.of_seq
        in
        Solution map
    | false -> Impossible
    | exception Out_of_budget -> Unknown
  end

let solve ?(budget = 20_000_000) ?(forward_check = true) ~complex ~allowed ~k () =
  search ~budget ~complex ~domain:allowed ~facet_ok:(fun assigned open_domains ->
      (* at most k distinct values, and once exactly k, every open vertex
         can still take one of them *)
      let distinct = Value.Set.of_list assigned in
      let d = Value.Set.cardinal distinct in
      d < k
      || d = k
         && ((not forward_check)
            || List.for_all
                 (Array.exists (fun u -> Value.Set.mem u distinct))
                 open_domains))

let solvable ?budget ?forward_check ~complex ~allowed ~k () =
  match solve ?budget ?forward_check ~complex ~allowed ~k () with
  | Solution _ -> Some true
  | Impossible -> Some false
  | Unknown -> None

let solve_general ?(budget = 20_000_000) ~complex ~domains ~partial_ok () =
  search ~budget ~complex ~domain:domains ~facet_ok:(fun assigned _ ->
      partial_ok assigned)

let kset_constraint k assigned =
  Value.Set.cardinal (Value.Set.of_list assigned) <= k

let distinct_constraint assigned =
  let s = Value.Set.of_list assigned in
  Value.Set.cardinal s = List.length assigned

let consensus_components_solvable ~complex ~allowed =
  Complex.connected_components complex
  |> List.for_all (fun comp ->
         let common =
           Vertex.Set.fold
             (fun v acc ->
               let dom = Value.Set.of_list (allowed v) in
               match acc with
               | None -> Some dom
               | Some so_far -> Some (Value.Set.inter so_far dom))
             comp None
         in
         match common with
         | None -> true
         | Some values -> not (Value.Set.is_empty values))
