open Psph_topology

type t = {
  base : Simplex.t;
  values : (Pid.t * Label.t list) list;
      (* aligned with ids of base, sorted by pid; value lists sorted,
         deduplicated *)
}

let create ~base ~values =
  if not (Simplex.is_chromatic base) then
    invalid_arg "Psph.create: base simplex is not chromatic";
  let vals =
    Pid.Set.elements (Simplex.ids base)
    |> List.map (fun p -> (p, List.sort_uniq Label.compare (values p)))
  in
  { base; values = vals }

let uniform ~base us = create ~base ~values:(fun _ -> us)

let base t = t.base

let values t = t.values

let normalize t =
  if List.for_all (fun (_, us) -> us <> []) t.values then t
  else
    let keep = List.filter (fun (_, us) -> us <> []) t.values in
    let keep_pids = Pid.Set.of_list (List.map fst keep) in
    { base = Simplex.restrict_ids keep_pids t.base; values = keep }

let dim t = List.length (List.filter (fun (_, us) -> us <> []) t.values) - 1

let is_empty t = dim t < 0

let connectivity_bound t = dim t - 1

(* [us] and [vs] sorted (and deduplicated) by Label.compare: intersection
   and containment are single merge walks, not quadratic scans *)
let rec inter_labels us vs =
  match (us, vs) with
  | [], _ | _, [] -> []
  | u :: us', v :: vs' ->
      let c = Label.compare u v in
      if c = 0 then u :: inter_labels us' vs'
      else if c < 0 then inter_labels us' vs
      else inter_labels us vs'

let rec sub_labels us vs =
  (* us subseteq vs *)
  match (us, vs) with
  | [], _ -> true
  | _ :: _, [] -> false
  | u :: us', v :: vs' ->
      let c = Label.compare u v in
      if c = 0 then sub_labels us' vs'
      else if c > 0 then sub_labels us vs'
      else false

let inter a b =
  let common = Simplex.inter a.base b.base in
  let ids = Simplex.ids common in
  (* both value lists are sorted by pid: one merge walk aligns them, keeping
     exactly the pids of the common base (ids common subseteq both pid
     lists, so every survivor is produced) *)
  let rec walk va vb =
    match (va, vb) with
    | [], _ | _, [] -> []
    | (p, us) :: va', (q, vs) :: vb' ->
        let c = Pid.compare p q in
        if c < 0 then walk va' vb
        else if c > 0 then walk va vb'
        else
          let rest = walk va' vb' in
          if Pid.Set.mem p ids then (p, inter_labels us vs) :: rest else rest
  in
  { base = common; values = walk a.values b.values }

let subsumes a b =
  let a = normalize a and b = normalize b in
  Simplex.subset b.base a.base
  &&
  (* both value lists sorted by pid: advance through a.values looking for
     each pid of b.values in turn *)
  let rec walk vb va =
    match (vb, va) with
    | [], _ -> true
    | _ :: _, [] -> false
    | (p, us) :: vb', (q, vs) :: va' ->
        let c = Pid.compare p q in
        if c = 0 then sub_labels us vs && walk vb' va'
        else if c > 0 then walk vb va'
        else false
  in
  walk b.values a.values

let equal a b =
  let a = normalize a and b = normalize b in
  Simplex.equal a.base b.base
  && List.length a.values = List.length b.values
  && List.for_all2
       (fun (p, us) (q, vs) ->
         Pid.equal p q
         && List.length us = List.length vs
         && List.for_all2 Label.equal us vs)
       a.values b.values

type vertex_builder = Pid.t -> Label.t -> Label.t -> Vertex.t

let default_vertex p _base u = Vertex.proc p u

let paired_vertex p base u = Vertex.proc p (Label.Pair (base, u))

let realize ?(vertex = paired_vertex) t =
  let t = normalize t in
  let base_label p =
    match Simplex.label_of p t.base with Some l -> l | None -> assert false
  in
  (* The face closure of a pseudosphere is itself a product: a simplex
     picks, for each process independently, either one of its vertices or
     nothing.  Enumerating that product builds the whole closure directly —
     no per-facet 2^d face expansion, no set-membership rechecks.  Vertices
     of distinct processes are ordered by pid regardless of label, so with
     each per-process vertex list pre-sorted, a product assembled in pid
     order is strictly sorted and needs no re-sort. *)
  let cols =
    List.map
      (fun (p, us) ->
        List.sort_uniq Vertex.compare (List.map (fun u -> vertex p (base_label p) u) us))
      t.values
  in
  let rec faces = function
    | [] -> [ [] ]
    | vxs :: rest ->
        let tails = faces rest in
        List.fold_left
          (fun acc v -> List.fold_left (fun acc tl -> (v :: tl) :: acc) acc tails)
          tails vxs
  in
  Complex.of_closure (List.rev_map Simplex.of_sorted_list (faces cols))

let facet_count t =
  let t = normalize t in
  if is_empty t then 0
  else List.fold_left (fun acc (_, us) -> acc * List.length us) 1 t.values

let simplex_count t =
  let t = normalize t in
  List.fold_left (fun acc (_, us) -> acc * (1 + List.length us)) 1 t.values - 1

let binary n =
  uniform ~base:(Simplex.proc_simplex n) [ Label.Int 0; Label.Int 1 ]

let pp ppf t =
  Format.fprintf ppf "psi(%a; %a)" Simplex.pp t.base
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       (fun ppf (p, us) ->
         Format.fprintf ppf "%a:{%a}" Pid.pp p
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
              Label.pp)
           us))
    t.values
