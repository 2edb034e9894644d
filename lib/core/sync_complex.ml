open Psph_topology
open Psph_model

(* Intrinsic value labels: the full heard set (survivors plus a subset of
   K).  Distinct failure sets producing the same heard set share vertices,
   exactly as in Figure 3. *)
let heard_sets s k =
  let survivors = Pid.Set.diff (Simplex.ids s) k in
  Failure.power_set k |> List.map (fun a -> Pid.Set.union survivors a)

let pseudosphere_failing s k =
  let alive = Simplex.ids s in
  let values _ =
    if Pid.Set.is_empty (Pid.Set.diff alive k) then []
    else List.map (fun m -> Label.Pid_set m) (heard_sets s k)
  in
  Psph.create ~base:(Simplex.without_ids k s) ~values

let pseudosphere_seq ~k s =
  List.to_seq (Failure.subsets_of_size_at_most (Simplex.ids s) k)
  |> Seq.filter_map (fun fk ->
         let ps = pseudosphere_failing s fk in
         if Psph.is_empty ps then None else Some (fk, ps))

let pseudospheres ~k s = List.of_seq (pseudosphere_seq ~k s)

let view_vertex s p base_label = function
  | Label.Pid_set m ->
      let heard =
        Pid.Set.elements m
        |> List.map (fun q ->
               match Simplex.label_of q s with
               | Some l -> (q, l)
               | None -> invalid_arg "Sync_complex: heard pid outside simplex")
      in
      Vertex.proc p (View.round_label ~prev:base_label ~heard)
  | _ -> invalid_arg "Sync_complex: value is not a pid set"

let one_round_failing s k =
  Psph.realize ~vertex:(view_vertex s) (pseudosphere_failing s k)

let one_round ~k s =
  List.fold_left
    (fun acc (_, ps) -> Complex.union acc (Psph.realize ~vertex:(view_vertex s) ps))
    Complex.empty (pseudospheres ~k s)

(* The model is not monotone: recursion must visit the facets of every
   S^1_K separately (see Carrier.compose). *)
let rounds ~k ~r s =
  Carrier.compose r s ~branches:(fun s ->
      List.map
        (fun (_, ps) -> Psph.realize ~vertex:(view_vertex s) ps)
        (pseudospheres ~k s))

let over_inputs ~k ~r inputs = Carrier.over_facets (rounds ~k ~r) inputs

let lemma14_rhs s k =
  Psph.realize
    ~vertex:(fun p _ -> function
      | Label.Pid_set m -> Vertex.proc p (Label.Pid_set (Pid.Set.diff k m))
      | _ -> assert false)
    (pseudosphere_failing s k)

let lemma14_map ~k = function
  | Vertex.Proc (p, l) -> (
      match View.of_label l with
      | View.Round { heard; _ } ->
          let m = Pid.Set.of_list (List.map fst heard) in
          Vertex.proc p (Label.Pid_set (Pid.Set.diff k m))
      | View.Init _ | View.Timed_round _ ->
          invalid_arg "Sync_complex.lemma14_map: not a one-round view")
  | (Vertex.Anon _ | Vertex.Bary _) as v -> v

let lemma14_holds s k =
  let lhs = one_round_failing s k and rhs = lemma14_rhs s k in
  Simplicial_map.is_isomorphism_via (lemma14_map ~k) lhs rhs

let realize_intrinsic s pss =
  List.fold_left
    (fun acc ps -> Complex.union acc (Psph.realize ~vertex:(view_vertex s) ps))
    Complex.empty pss

let lemma15_lhs s ks =
  match List.rev ks with
  | [] -> Complex.empty
  | kt :: prefix_rev ->
      let prefix = List.rev prefix_rev in
      let left = realize_intrinsic s (List.map (pseudosphere_failing s) prefix) in
      let right = realize_intrinsic s [ pseudosphere_failing s kt ] in
      Complex.inter left right

let lemma15_rhs s ks =
  match List.rev ks with
  | [] -> Complex.empty
  | kt :: _ ->
      let survivors = Pid.Set.diff (Simplex.ids s) kt in
      let piece p =
        (* psi(S \ K_t; 2^{K_t - {P}}): in the paper's labels the value is
           the subset of K_t a survivor MISSED (Lemma 14's map), so the
           piece for P consists of the states in which every survivor heard
           P's final message *)
        let values _ =
          Failure.power_set (Pid.Set.remove p kt)
          |> List.map (fun a ->
                 Label.Pid_set (Pid.Set.union survivors (Pid.Set.add p a)))
        in
        Psph.create ~base:(Simplex.without_ids kt s) ~values
      in
      realize_intrinsic s (List.map piece (Pid.Set.elements kt))

let lemma15_holds s ks = Complex.equal (lemma15_lhs s ks) (lemma15_rhs s ks)

let lemma16_expected_connectivity ~m ~n ~k = m - (n - k) - 1

let theorem18_lower_bound ~n ~f ~k =
  if n > f + k then (f / k) + 1 else f / k
