open Psph_topology

type t = {
  base : Simplex.t;
  values : (Pid.t * Label.t list) list;
      (* aligned with ids of base, sorted by pid; value lists sorted,
         deduplicated *)
}

(* [sorted p]: the sorted, deduplicated values of [p]; a chromatic base
   lists its pids in ascending order *)
let over_base base sorted =
  if not (Simplex.is_chromatic base) then
    invalid_arg "Psph.create: base simplex is not chromatic";
  let value v acc =
    match v with
    | Vertex.Proc (p, _) -> (p, sorted p) :: acc
    | Vertex.Anon _ | Vertex.Bary _ -> assert false
  in
  { base; values = Array.fold_right value (Simplex.vertex_array base) [] }

let create ~base ~values = over_base base (fun p -> List.sort_uniq Label.compare (values p))

(* one list shared by every process, sorted once *)
let uniform ~base us =
  let us = List.sort_uniq Label.compare us in
  over_base base (fun _ -> us)

let base t = t.base

let values t = t.values

let normalize t =
  if List.for_all (fun (_, us) -> us <> []) t.values then t
  else
    let keep = List.filter (fun (_, us) -> us <> []) t.values in
    let keep_pids = Pid.Set.of_list (List.map fst keep) in
    { base = Simplex.restrict_ids keep_pids t.base; values = keep }

let dim t = List.fold_left (fun n (_, us) -> if us = [] then n else n + 1) (-1) t.values

let is_empty t = List.for_all (fun (_, us) -> us = []) t.values

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

module Built = Hashtbl.Make (struct
  type t = Vertex.t

  let equal = Vertex.equal

  let hash = Simplex_index.vertex_hash
end)

(* keyed on [Proc (p, u)]: the base label is not part of the key *)
let shared vertex =
  let built = Built.create 16 in
  fun p base u ->
    let key = Vertex.proc p u in
    match Built.find built key with
    | v -> v
    | exception Not_found ->
        let v = vertex p base u in
        Built.add built key v;
        v

(* A facet is a choice tuple: one vertex per (nonempty) base vertex.
   Each column's vertices are built and interned once, and the tuples are
   enumerated over their ids in pid order — vertices of distinct
   processes are ordered by pid regardless of label, so that is the
   sorted vertex order. *)
let facets ?(vertex = paired_vertex) t tbl emit =
  let t = normalize t in
  if t.values <> [] then begin
    let base_label p =
      match Simplex.label_of p t.base with Some l -> l | None -> assert false
    in
    let cols =
      Array.of_list
        (List.map
           (fun (p, us) ->
             let b = base_label p in
             Array.of_list (List.map (fun u -> Vertex_table.intern tbl (vertex p b u)) us))
           t.values)
    in
    let m = Array.length cols in
    let buf = Array.make m 0 in
    let rec go i =
      if i = m then emit buf
      else
        Array.iter
          (fun id ->
            buf.(i) <- id;
            go (i + 1))
          cols.(i)
    in
    go 0
  end

let realize ?vertex t =
  let tbl = Vertex_table.create () in
  facets ?vertex t tbl (Vertex_table.add_facet tbl);
  Vertex_table.complex tbl

let facet_count t =
  let t = normalize t in
  if is_empty t then 0
  else List.fold_left (fun acc (_, us) -> acc * List.length us) 1 t.values

(* saturating at [max_int]: the product overflows an int from about 40
   processes with one value each *)
let simplex_count t =
  let t = normalize t in
  let prod =
    List.fold_left
      (fun acc (_, us) ->
        let c = 1 + List.length us in
        if acc > max_int / c then max_int else acc * c)
      1 t.values
  in
  if prod = max_int then max_int else prod - 1

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
