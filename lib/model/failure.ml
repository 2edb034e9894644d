open Psph_topology

(* [choose k len l prefix acc]: [prefix] plus each [k]-subset of the
   ascending list [l], whose length is [len], in lex order, in front of
   [acc].  The subsets holding [l]'s head come first, so the order needs
   no sort.  A branch with fewer than [k] elements left is cut at once, so
   the work is bounded by the subsets listed, not by 2^len. *)
let rec choose k len l prefix acc =
  if k = 0 then prefix :: acc
  else if len < k then acc
  else
    match l with
    | [] -> acc
    | x :: rest ->
        choose (k - 1) (len - 1) rest (Pid.Set.add x prefix)
          (choose k (len - 1) rest prefix acc)

let subsets_of_size univ k =
  choose k (Pid.Set.cardinal univ) (Pid.Set.elements univ) Pid.Set.empty []

let subsets_of_size_at_most univ k =
  List.concat_map (fun i -> subsets_of_size univ i) (List.init (k + 1) (fun i -> i))

let power_set univ = subsets_of_size_at_most univ (Pid.Set.cardinal univ)

type pattern = { failed : Pid.Set.t; at : int Pid.Map.t }

let pattern assoc =
  let failed = Pid.Set.of_list (List.map fst assoc) in
  if Pid.Set.cardinal failed <> List.length assoc then
    invalid_arg "Failure.pattern: duplicate pids";
  { failed; at = Pid.Map.of_seq (List.to_seq assoc) }

let pp_pattern ppf { at; _ } =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf (q, m) -> Format.fprintf ppf "%a@@%d" Pid.pp q m))
    (Pid.Map.bindings at)

let all_patterns ~p k =
  (* reverse-lex: first pattern fails everyone at microround p, last at 1 *)
  let pids = Pid.Set.elements k in
  let rec build = function
    | [] -> [ [] ]
    | q :: rest ->
        let tails = build rest in
        List.concat_map
          (fun m -> List.map (fun tl -> (q, m) :: tl) tails)
          (List.init p (fun i -> p - i))
  in
  List.map pattern (build pids)

let compare_pattern a b =
  (* reverse-lexicographic on the failure microrounds, aligned by pid *)
  let la = Pid.Map.bindings a.at and lb = Pid.Map.bindings b.at in
  let rec loop x y =
    match (x, y) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | (p, m) :: x', (q, n) :: y' ->
        let c = Pid.compare p q in
        if c <> 0 then c
        else
          let c = Int.compare n m (* reverse: larger microround first *) in
          if c <> 0 then c else loop x' y'
  in
  loop la lb

let base_view ~p ~n ~alive { failed; _ } =
  Array.init (n + 1) (fun j ->
      if Pid.Set.mem j failed then -1 (* placeholder, filled per choice *)
      else if Pid.Set.mem j alive then p
      else 0)

let views ~p ~n ~alive ({ failed; at } as pat) =
  if not (Pid.Set.subset failed alive) then
    invalid_arg "Failure.views: failure set must be alive at round start";
  let base = base_view ~p ~n ~alive pat in
  let choices =
    Pid.Set.fold
      (fun q acc ->
        let m = Pid.Map.find q at in
        List.concat_map
          (fun v ->
            List.map
              (fun mu ->
                let v' = Array.copy v in
                v'.(q) <- mu;
                v')
              [ m - 1; m ])
          acc)
      failed [ base ]
  in
  choices

let views_up ~p ~n ~alive ({ failed; at } as pat) j =
  if not (Pid.Set.mem j failed) then
    invalid_arg "Failure.views_up: pid not in failure set";
  let mj = Pid.Map.find j at in
  List.filter (fun v -> v.(j) = mj) (views ~p ~n ~alive pat)
