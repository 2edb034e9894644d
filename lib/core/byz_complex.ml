open Psph_topology
open Psph_model

(* What a survivor believes process [q] sent this round.  Version 0 is the
   value a correct [q] would have sent — deliberately the same label, so
   the execution in which an accused process behaved correctly is a face
   of the failure-free execution (the gluing the connectivity argument
   needs).  Versions >= 1 are forgeries, tagged so they can never collide
   with an honest label (honest multi-round labels pair a base with a
   heard *list*, never with a bare [Int]). *)
let claim s q v =
  match Simplex.label_of q s with
  | None -> invalid_arg "Byz_complex: claimed pid outside simplex"
  | Some l -> if v = 0 then l else Label.Pair (l, Label.Int v)

(* the entries heard, as [Pair (Pid q, claim)] in pid order: [truthful]
   ascends and [extra] descends by pid, and no pid is in both *)
let value_label truthful extra =
  let entry (q, c) = Label.Pair (Label.Pid q, c) in
  let rec merge t e =
    match (t, e) with
    | [], e -> List.map entry e
    | t, [] -> List.map entry t
    | ((q, _) as a) :: t', ((r, _) as b) :: e' ->
        if Pid.compare q r < 0 then entry a :: merge t' e else entry b :: merge t e'
  in
  Label.List (merge truthful (List.rev extra))

(* all ways the accused set [ks] can present itself to one survivor: each
   accused process independently stays silent or is heard with one of
   [versions] claims (version 0 = the honest value); each way lists its
   claims by descending pid *)
let assignments s ks ~versions =
  Pid.Set.fold
    (fun q acc ->
      let opts = None :: List.init versions (fun v -> Some (q, claim s q v)) in
      List.concat_map
        (fun partial ->
          List.map
            (fun o -> match o with None -> partial | Some e -> e :: partial)
            opts)
        acc)
    ks [ [] ]

(* one piece per accused set K: the pseudosphere over S \ K whose value
   sets enumerate, per survivor independently, which of K it heard and
   with which claims — survivors are always heard, honestly *)
let pseudosphere_accusing ~alive s ks ~versions =
  let survivors = Pid.Set.diff alive ks in
  let values =
    if Pid.Set.is_empty survivors then []
    else begin
      let truthful =
        List.map (fun q -> (q, claim s q 0)) (Pid.Set.elements survivors)
      in
      List.map
        (fun extra -> value_label truthful extra)
        (assignments s ks ~versions)
    end
  in
  Psph.uniform ~base:(Simplex.without_ids ks s) values

(* the adversary's remaining exposure budget is determined by the state
   itself: processes exposed in earlier rounds have left the simplex, so
   [spent = (n + 1) - |alive|] — which keeps [Carrier.compose]'s
   per-simplex memoization sound *)
let accusation_sets ~n ~k ~t ~alive =
  let spent = n + 1 - Pid.Set.cardinal alive in
  let cap = min k (max 0 (t - spent)) in
  Failure.subsets_of_size_at_most alive cap
  |> List.filter (fun ks -> Pid.Set.cardinal ks < Pid.Set.cardinal alive)

let pseudospheres ~n ~k ~t ~versions s =
  let alive = Simplex.ids s in
  accusation_sets ~n ~k ~t ~alive
  |> List.filter_map (fun ks ->
         let ps = pseudosphere_accusing ~alive s ks ~versions in
         if Psph.is_empty ps then None else Some (ks, ps))

(* realized with the paired vertex builder, so a vertex carries its full
   information: previous state plus everything heard (with claims) *)
let round ~n ~k ~t ~versions tbl s emit =
  List.iter
    (fun (_, ps) -> Psph.facets ps tbl emit)
    (pseudospheres ~n ~k ~t ~versions s)

let one_round ~n ~k ~t ~versions s = Carrier.rounds (round ~n ~k ~t ~versions) 1 s

let rounds ~n ~k ~t ~versions ~r s = Carrier.rounds (round ~n ~k ~t ~versions) r s

let over_inputs ~n ~k ~t ~versions ~r inputs =
  Carrier.over_inputs (round ~n ~k ~t ~versions) r inputs

(* the Mendes-Herlihy shape: for r <= ceil(t/k) rounds (budget not yet
   exhausted) and n >= rk + k, the r-round complex over an m-simplex is
   (m - (n - k_r) - 1)-connected, where k_r = min(k, t - (r-1)k) is the
   worst-case exposure budget left for the last round.  At m = n and
   k | t this is exactly (k - 1)-connectivity for ceil(t/k) rounds. *)
let expected_connectivity ~m ~n ~k ~t ~r =
  if k >= 1 && r >= 1 && ((r - 1) * k) < t && n >= (r * k) + k then
    Some (m - (n - min k (t - ((r - 1) * k))) - 1)
  else None
