type col = int list

let rec sym_diff a b =
  match (a, b) with
  | [], c | c, [] -> c
  | x :: a', y :: b' ->
      if x < y then x :: sym_diff a' b
      else if y < x then y :: sym_diff a b'
      else sym_diff a' b'

let rec low = function
  | [] -> None
  | [ x ] -> Some x
  | _ :: rest -> low rest

let is_zero c = c = []

let reduce cols =
  let pivot : (int, col) Hashtbl.t = Hashtbl.create 64 in
  let reduce_one col =
    let rec loop col =
      match low col with
      | None -> col
      | Some l -> (
          match Hashtbl.find_opt pivot l with
          | None ->
              Hashtbl.replace pivot l col;
              col
          | Some other -> loop (sym_diff col other))
    in
    loop col
  in
  List.map reduce_one cols

let rank cols =
  List.fold_left
    (fun acc col -> if is_zero col then acc else acc + 1)
    0 (reduce cols)

module SMap = Psph_topology.Simplex_sets.SMap
module Complex = Psph_topology.Complex
module Simplex = Psph_topology.Simplex

let index_of_dim c d =
  List.sort Simplex.compare (Complex.simplices_of_dim c d)
  |> List.mapi (fun i s -> (s, i))
  |> List.to_seq |> SMap.of_seq

let boundary_matrix c d =
  if d <= 0 then
    (* d = 0 is the augmentation map, which has no matrix here *)
    invalid_arg "Z2_matrix.boundary_matrix: dimension must be >= 1"
  else
    let rows = index_of_dim c (d - 1) in
    let cols = List.sort Simplex.compare (Complex.simplices_of_dim c d) in
    List.map
      (fun s ->
        Simplex.facets s
        |> List.map (fun f -> SMap.find f rows)
        |> List.sort Int.compare)
      cols
