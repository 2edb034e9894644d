open Psph_topology
open Psph_model

(* Heard-set options for an alive process: subsets [M] of the alive set
   with [self in M] and [|M| >= n - f + 1].  Only subsets of feasible size
   are enumerated (in the same size-then-lex order the filtered power set
   produced), instead of generating all 2^|others| and filtering. *)
let heard_options ~n ~f ~alive self =
  let others = Pid.Set.remove self alive in
  let card = Pid.Set.cardinal others in
  let lo = max 0 (n - f) in
  if card < lo then []
  else
    List.init (card - lo + 1) (fun i -> lo + i)
    |> List.concat_map (fun size -> Failure.subsets_of_size others size)
    |> List.map (fun m -> Pid.Set.add self m)

let pseudosphere ~n ~f s =
  let alive = Simplex.ids s in
  let values p =
    if Pid.Set.cardinal alive < n - f + 1 then []
    else List.map (fun m -> Label.Pid_set m) (heard_options ~n ~f ~alive p)
  in
  Psph.create ~base:s ~values

let view_vertex s p base_label = function
  | Label.Pid_set m ->
      let heard =
        Pid.Set.elements m
        |> List.map (fun q ->
               match Simplex.label_of q s with
               | Some l -> (q, l)
               | None -> invalid_arg "Async_complex: heard pid outside simplex")
      in
      Vertex.proc p (View.round_label ~prev:base_label ~heard)
  | _ -> invalid_arg "Async_complex: value is not a pid set"

let one_round ~n ~f s =
  Psph.realize ~vertex:(view_vertex s) (pseudosphere ~n ~f s)

(* Monotone (a face's complex is a subcomplex of a facet's), so a single
   branch suffices; the shared operator adds (r, state) memoization. *)
let rounds ~n ~f ~r s =
  Carrier.compose r s ~branches:(fun s -> [ one_round ~n ~f s ])

let over_inputs ~n ~f ~r inputs = Carrier.over_facets (rounds ~n ~f ~r) inputs

let lemma11_map = function
  | Vertex.Proc (p, l) -> (
      match View.of_label l with
      | View.Round { heard; _ } ->
          let m = Pid.Set.of_list (List.map fst heard) in
          Vertex.proc p (Label.Pid_set (Pid.Set.remove p m))
      | View.Init _ | View.Timed_round _ ->
          invalid_arg "Async_complex.lemma11_map: not a one-round view")
  | (Vertex.Anon _ | Vertex.Bary _) as v -> v

let lemma11_rhs ~n ~f s =
  (* plain labelling with self removed, as in the paper's statement *)
  Psph.realize
    ~vertex:(fun p _ -> function
      | Label.Pid_set m -> Vertex.proc p (Label.Pid_set (Pid.Set.remove p m))
      | _ -> assert false)
    (pseudosphere ~n ~f s)

let lemma11_holds ~n ~f s =
  let lhs = one_round ~n ~f s and rhs = lemma11_rhs ~n ~f s in
  Simplicial_map.is_isomorphism_via lemma11_map lhs rhs

let lemma12_expected_connectivity ~m ~n ~f = m - (n - f) - 1

let corollary13_impossible ~f ~k = k <= f
