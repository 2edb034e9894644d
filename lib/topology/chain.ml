module SSet = Simplex_sets.SSet

type t = SSet.t

let zero = SSet.empty

let check_same_dim set =
  match SSet.elements set with
  | [] -> ()
  | s :: rest ->
      let d = Simplex.dim s in
      if not (List.for_all (fun x -> Simplex.dim x = d) rest) then
        invalid_arg "Chain: mixed dimensions"

let of_simplices ss =
  (* duplicates cancel over Z/2 *)
  let set =
    List.fold_left
      (fun acc s -> if SSet.mem s acc then SSet.remove s acc else SSet.add s acc)
      SSet.empty ss
  in
  check_same_dim set;
  set

let simplices = SSet.elements

let is_zero = SSet.is_empty

let dim c = match SSet.min_elt_opt c with None -> -1 | Some s -> Simplex.dim s

let add a b =
  let sum = SSet.union (SSet.diff a b) (SSet.diff b a) in
  check_same_dim sum;
  sum

let boundary c =
  SSet.fold
    (fun s acc ->
      List.fold_left
        (fun acc f ->
          if Simplex.is_empty f then acc
          else if SSet.mem f acc then SSet.remove f acc
          else SSet.add f acc)
        acc (Simplex.facets s))
    c SSet.empty

let is_cycle c = is_zero (boundary c)

let is_boundary_in complex c =
  if is_zero c then true
  else begin
    let d = dim c in
    (* solve boundary(x) = c with x a (d+1)-chain of the complex: gaussian
       elimination on the columns of boundary_{d+1} augmented with c *)
    let rows =
      List.sort Simplex.compare (Complex.simplices_of_dim complex d)
      |> List.mapi (fun i s -> (s, i))
    in
    let index s =
      match List.find_opt (fun (x, _) -> Simplex.equal x s) rows with
      | Some (_, i) -> Some i
      | None -> None
    in
    let cols =
      Complex.simplices_of_dim complex (d + 1)
      |> List.map (fun s ->
             Simplex.facets s
             |> List.filter_map index
             |> List.sort_uniq Int.compare)
    in
    let target =
      SSet.elements c |> List.filter_map index |> List.sort_uniq Int.compare
    in
    if List.length target <> SSet.cardinal c then false
    else begin
      (* c is a boundary iff adding it to the column space does not raise
         the rank *)
      let rows = List.length rows in
      let rank_without = Bitmat.rank_of_columns ~rows cols in
      let rank_with = Bitmat.rank_of_columns ~rows (cols @ [ target ]) in
      rank_with = rank_without
    end
  end

let fundamental_class complex =
  let d = Complex.dim complex in
  of_simplices (Complex.simplices_of_dim complex d)

let pp ppf c =
  if is_zero c then Format.pp_print_string ppf "0"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
      Simplex.pp ppf (simplices c)
