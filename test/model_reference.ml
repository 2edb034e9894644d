(* Every registered model's complex, built the labelled way: pseudosphere
   pieces realized as product closures of labelled simplexes, the dyn
   round by marking packed face codes, the IIS round from its schedules,
   and rounds composed facet by facet with complex unions.  None of it
   goes through [Vertex_table], [Psph.facets] or [Carrier], so the served
   build over vertex ids is held to an oracle that shares none of its
   code.  The model modules supply only their symbolic pieces (the
   pseudospheres and failure patterns). *)

open Psph_topology
open Pseudosphere
open Psph_model
module MC = Model_complex

(* The face closure of a pseudosphere is itself a product: a simplex
   picks, for each process independently, either one of its vertices or
   nothing.  Vertices of distinct processes are ordered by pid, so a
   product assembled in pid order from pre-sorted columns is sorted. *)
let realize ?(vertex = Psph.paired_vertex) ps =
  let ps = Psph.normalize ps in
  let base = Psph.base ps in
  let cols =
    List.map
      (fun (p, us) ->
        let b = Option.get (Simplex.label_of p base) in
        List.sort_uniq Vertex.compare (List.map (fun u -> vertex p b u) us))
      (Psph.values ps)
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

(* the full-information vertex of an untimed round: the previous state
   paired with the (pid, state) list of the heard set *)
let view_vertex s p prev = function
  | Label.Pid_set m ->
      let heard =
        List.map
          (fun q -> (q, Option.get (Simplex.label_of q s)))
          (Pid.Set.elements m)
      in
      Vertex.proc p (View.round_label ~prev ~heard)
  | _ -> invalid_arg "Model_reference.view_vertex"

(* the same for a timed (semi-synchronous) round: the microround vector *)
let timed_view_vertex ~p s q prev = function
  | Label.Vec vec ->
      let heard =
        List.filter_map
          (fun (r, mu) ->
            if mu >= 1 then Some (r, mu, Option.get (Simplex.label_of r s)) else None)
          (Array.to_list (Array.mapi (fun r mu -> (r, mu)) vec))
      in
      Vertex.proc q (View.timed_round_label ~p ~prev ~heard)
  | _ -> invalid_arg "Model_reference.timed_view_vertex"

module Codes = Hashtbl.Make (Int)

(* The dyn round as a filtered pseudosphere product: digit i of a face
   code, in base 2^(m-1) + 1, is 0 when process i is absent and j + 1
   when it picks option j.  Faces of every kept tuple are marked with
   closure pruning, then each is built once in pid order. *)
let dyn_one_round adv s =
  let pids = Array.of_list (Pid.Set.elements (Simplex.ids s)) in
  let m = Array.length pids in
  if m = 0 then Complex.empty
  else begin
    let k = 1 lsl (m - 1) in
    let base = k + 1 in
    let weight = Array.make (m + 1) 1 in
    for i = 1 to m do
      weight.(i) <- weight.(i - 1) * base
    done;
    let label i = Option.get (Simplex.label_of pids.(i) s) in
    let heard = Array.init m (fun q -> Label.Pair (Label.Pid pids.(q), label q)) in
    let mask_of i j =
      let low = j land ((1 lsl i) - 1) in
      low lor (1 lsl i) lor ((j lxor low) lsl 1)
    in
    let vertex i mask =
      let heard_from =
        List.filter_map
          (fun q -> if mask land (1 lsl q) <> 0 then Some heard.(q) else None)
          (List.init m Fun.id)
      in
      Vertex.proc pids.(i) (Label.Pair (label i, Label.List heard_from))
    in
    let options = Array.init m (fun i -> Array.init k (mask_of i)) in
    let vertices = Array.init m (fun i -> Array.map (vertex i) options.(i)) in
    let seen = Codes.create 1024 in
    let rec mark code =
      if code <> 0 && not (Codes.mem seen code) then begin
        Codes.add seen code ();
        for i = 0 to m - 1 do
          let d = code / weight.(i) mod base in
          if d > 0 then mark (code - (d * weight.(i)))
        done
      end
    in
    let ins = Array.make m 0 in
    let rec choose i code =
      if i = m then (if Dyn_net_complex.allows adv ins then mark code)
      else
        for j = 0 to k - 1 do
          ins.(i) <- options.(i).(j);
          choose (i + 1) (code + ((j + 1) * weight.(i)))
        done
    in
    choose 0 0;
    let face code =
      let rec go i acc =
        if i < 0 then acc
        else
          let d = code / weight.(i) mod base in
          go (i - 1) (if d > 0 then vertices.(i).(d - 1) :: acc else acc)
      in
      Simplex.of_sorted_list (go (m - 1) [])
    in
    Complex.of_closure (Codes.fold (fun code () acc -> face code :: acc) seen [])
  end

(* the IIS round: one labelled facet per immediate-snapshot schedule *)
let iis_one_round s =
  let view q seen =
    let heard =
      List.map (fun r -> (r, Option.get (Simplex.label_of r s))) (Pid.Set.elements seen)
    in
    Vertex.proc q (View.round_label ~prev:(Option.get (Simplex.label_of q s)) ~heard)
  in
  Complex.of_facets
    (List.map
       (fun schedule ->
         Simplex.of_list
           (List.map
              (fun (q, seen) -> view q seen)
              (Pid.Map.bindings (Snapshot.views_of_schedule schedule))))
       (Snapshot.schedules (Simplex.ids s)))

(* each registered model's one-round branches over a state *)
let branches name (spec : MC.spec) =
  let ext key = MC.ext_value spec key ~default:0 in
  match name with
  | "async" ->
      Some
        (fun s ->
          [ realize ~vertex:(view_vertex s) (Async_complex.pseudosphere ~n:spec.n ~f:spec.f s) ])
  | "iis" -> Some (fun s -> [ iis_one_round s ])
  | "sync" ->
      Some
        (fun s ->
          List.map
            (fun (_, ps) -> realize ~vertex:(view_vertex s) ps)
            (Sync_complex.pseudospheres ~k:spec.k s))
  | "semi" ->
      Some
        (fun s ->
          List.map
            (fun (_, ps) -> realize ~vertex:(timed_view_vertex ~p:spec.p s) ps)
            (Semi_sync_complex.pseudospheres ~k:spec.k ~p:spec.p ~n:spec.n s))
  | "byz" ->
      Some
        (fun s ->
          List.map
            (fun (_, ps) -> realize ps)
            (Byz_complex.pseudospheres ~n:spec.n ~k:spec.k ~t:(ext "t")
               ~versions:(1 + ext "equiv") s))
  | "dyn" ->
      let adv = Option.get (Dyn_net_complex.adversary_of_int (ext "adv")) in
      Some (fun s -> [ dyn_one_round adv s ])
  | _ -> None

(* Round composition facet by facet, with no last-round shortcut: every
   facet of every branch is recursed on down to [r = 0], where it is
   re-closed. *)
module Round_state = Map.Make (struct
  type t = int * Simplex.t

  let compare (r, s) (r', s') =
    match Int.compare r r' with 0 -> Simplex.compare s s' | c -> c
end)

let compose ~branches r s =
  let memo = ref Round_state.empty in
  let rec go r s =
    if r <= 0 then Complex.of_simplex s
    else
      match Round_state.find_opt (r, s) !memo with
      | Some c -> c
      | None ->
          let c =
            List.fold_left
              (fun acc b ->
                List.fold_left
                  (fun acc t -> Complex.union acc (go (r - 1) t))
                  acc (Complex.facets b))
              Complex.empty (branches s)
          in
          memo := Round_state.add (r, s) c !memo;
          c
  in
  go r s

(* the [spec.r]-round complex of a registered model over [s] *)
let complex name (spec : MC.spec) s =
  Option.map (fun branches -> compose ~branches spec.r s) (branches name spec)
