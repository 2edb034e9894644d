open Psph_topology
open Psph_model

let pseudosphere_pattern ~p ~n s pat =
  let alive = Simplex.ids s in
  let k = pat.Failure.failed in
  let values _ =
    if Pid.Set.is_empty (Pid.Set.diff alive k) then []
    else
      Failure.views ~p ~n ~alive pat
      |> List.map (fun vec -> Label.Vec vec)
  in
  Psph.create ~base:(Simplex.without_ids k s) ~values

let pseudosphere_seq ~k ~p ~n s =
  List.to_seq (Failure.subsets_of_size_at_most (Simplex.ids s) k)
  |> Seq.concat_map (fun fk -> List.to_seq (Failure.all_patterns ~p fk))
  |> Seq.filter_map (fun pat ->
         let ps = pseudosphere_pattern ~p ~n s pat in
         if Psph.is_empty ps then None else Some (pat, ps))

let pseudospheres ~k ~p ~n s = List.of_seq (pseudosphere_seq ~k ~p ~n s)

let view_vertex ~p s q base_label = function
  | Label.Vec vec ->
      let heard =
        Array.to_list (Array.mapi (fun r mu -> (r, mu)) vec)
        |> List.filter_map (fun (r, mu) ->
               if mu >= 1 then
                 match Simplex.label_of r s with
                 | Some l -> Some (r, mu, l)
                 | None ->
                     invalid_arg "Semi_sync_complex: heard pid outside simplex"
               else None)
      in
      Vertex.proc q (View.timed_round_label ~p ~prev:base_label ~heard)
  | _ -> invalid_arg "Semi_sync_complex: value is not a view vector"

let one_round_pattern ~p ~n s pat =
  Psph.realize ~vertex:(view_vertex ~p s) (pseudosphere_pattern ~p ~n s pat)

let one_round ~k ~p ~n s =
  List.fold_left
    (fun acc (_, ps) -> Complex.union acc (Psph.realize ~vertex:(view_vertex ~p s) ps))
    Complex.empty (pseudospheres ~k ~p ~n s)

(* As in the synchronous model, recursion must visit the facets of every
   [M^1_{K,F}] separately (see Carrier.compose). *)
let rounds ~k ~p ~n ~r s =
  Carrier.compose r s ~branches:(fun s ->
      List.map
        (fun (_, ps) -> Psph.realize ~vertex:(view_vertex ~p s) ps)
        (pseudospheres ~k ~p ~n s))

let over_inputs ~k ~p ~n ~r inputs = Carrier.over_facets (rounds ~k ~p ~n ~r) inputs

let lemma19_rhs ~p ~n s pat =
  Psph.realize ~vertex:Psph.default_vertex (pseudosphere_pattern ~p ~n s pat)

let lemma19_map ~n = function
  | Vertex.Proc (q, l) -> (
      match View.of_label l with
      | View.Timed_round { heard; _ } ->
          let vec = Array.make (n + 1) 0 in
          List.iter (fun (r, mu, _) -> vec.(r) <- mu) heard;
          Vertex.proc q (Label.Vec vec)
      | View.Init _ | View.Round _ ->
          invalid_arg "Semi_sync_complex.lemma19_map: not a timed view")
  | (Vertex.Anon _ | Vertex.Bary _) as v -> v

let lemma19_holds ~p ~n s pat =
  let lhs = one_round_pattern ~p ~n s pat in
  let rhs = lemma19_rhs ~p ~n s pat in
  Simplicial_map.is_isomorphism_via (lemma19_map ~n) lhs rhs

let realize_intrinsic ~p s pss =
  List.fold_left
    (fun acc ps -> Complex.union acc (Psph.realize ~vertex:(view_vertex ~p s) ps))
    Complex.empty pss

let lemma20_lhs ~p ~n s pats =
  match List.rev pats with
  | [] -> Complex.empty
  | pt :: prefix_rev ->
      let prefix = List.rev prefix_rev in
      let left =
        realize_intrinsic ~p s (List.map (pseudosphere_pattern ~p ~n s) prefix)
      in
      let right = realize_intrinsic ~p s [ pseudosphere_pattern ~p ~n s pt ] in
      Complex.inter left right

let lemma20_rhs ~p ~n s pats =
  match List.rev pats with
  | [] -> Complex.empty
  | pt :: _ ->
      let kt = pt.Failure.failed in
      let piece j =
        let alive = Simplex.ids s in
        let values _ =
          Failure.views_up ~p ~n ~alive pt j |> List.map (fun vec -> Label.Vec vec)
        in
        Psph.create ~base:(Simplex.without_ids kt s) ~values
      in
      realize_intrinsic ~p s (List.map piece (Pid.Set.elements kt))

let lemma20_holds ~p ~n s pats =
  Complex.equal (lemma20_lhs ~p ~n s pats) (lemma20_rhs ~p ~n s pats)

let lemma21_expected_connectivity ~m ~n ~k = m - (n - k) - 1

let corollary22_time ~f ~k ~c1 ~c2 ~d =
  let r = ((f + k - 1) / k) - 1 in
  let c = float_of_int c2 /. float_of_int c1 in
  (float_of_int r *. float_of_int d) +. (c *. float_of_int d)
