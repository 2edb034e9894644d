type group = { rank : int; torsion : int list }

let group_to_string g =
  let free =
    match g.rank with 0 -> [] | 1 -> [ "Z" ] | r -> [ Printf.sprintf "Z^%d" r ]
  in
  let tors = List.map (Printf.sprintf "Z/%d") g.torsion in
  match free @ tors with [] -> "0" | parts -> String.concat " + " parts

(* rows and columns in {!Simplex_index} order: rank and torsion are
   invariant under row order, so any fixed enumeration works *)
let boundary_of_index idx d =
  let cols = Simplex_index.keys idx d in
  let m =
    Array.make_matrix
      (Array.length (Simplex_index.keys idx (d - 1)))
      (Array.length cols) 0
  in
  Array.iteri
    (fun j k ->
      (* the facet omitting vertex i carries sign (-1)^i *)
      for i = 0 to d do
        m.(Simplex_index.face_row idx k i).(j) <- (if i mod 2 = 0 then 1 else -1)
      done)
    cols;
  m

(* diag_d = smith diagonal of boundary_d (with boundary_0 = augmentation of
   rank 1 on nonempty complexes, torsion-free).  Then
   H_d = Z^{n_d - rank_d - rank_{d+1}} + torsion(boundary_{d+1}). *)
let homology_gen ~reduced ?max_dim c =
  let dim = Complex.dim c in
  let top = match max_dim with None -> dim | Some m -> min m dim in
  if dim < 0 then [||]
  else begin
    let upper = min (top + 1) dim in
    let idx = Simplex_index.create ~max_dim:upper c in
    let diag = Array.make (upper + 1) [] in
    for d = 1 to upper do
      diag.(d) <- Snf.smith_diagonal (boundary_of_index idx d)
    done;
    let rank_of d =
      if d = 0 then if reduced && not (Complex.is_empty c) then 1 else 0
      else if d <= upper then List.length diag.(d)
      else 0
    in
    Array.init (top + 1) (fun d ->
        let chains = Complex.count_of_dim c d in
        let rank_above = if d + 1 <= dim then rank_of (d + 1) else 0 in
        let free = chains - rank_of d - rank_above in
        let torsion =
          if d + 1 <= upper then List.filter (fun x -> x > 1) diag.(d + 1)
          else []
        in
        { rank = free; torsion })
  end

let homology ?max_dim c = homology_gen ~reduced:false ?max_dim c

let reduced_homology ?max_dim c = homology_gen ~reduced:true ?max_dim c

let is_torsion_free ?max_dim c =
  Array.for_all (fun g -> g.torsion = []) (homology ?max_dim c)

let betti_z ?max_dim c = Array.map (fun g -> g.rank) (homology ?max_dim c)
