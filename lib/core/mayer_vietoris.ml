open Psph_topology

type proof =
  | Empty
  | Axiom of { ps : Psph.t; conn : int }
  | Disjoint of { left : proof; right : proof }
  | Glue of { conn : int; left : proof; right : proof; inter : proof }

let conn = function
  | Empty -> -2
  | Axiom { conn; _ } -> conn
  | Disjoint _ -> -1
  | Glue { conn; _ } -> conn

(* Drop empty pseudospheres, repeats, and pieces strictly subsumed by
   another element: the union is unchanged and derivations stay small.
   Each piece is normalized once and the pairwise tests compare the
   normalized forms; the original pieces are what the proof keeps. *)
let prune ~subsume pss =
  let normal =
    List.filter_map
      (fun ps ->
        let n = Psph.normalize ps in
        if Psph.is_empty n then None else Some (n, ps))
      pss
  in
  (* dedupe equal elements, keeping first occurrences *)
  let deduped =
    List.fold_left
      (fun acc ((n, _) as x) ->
        if List.exists (fun (m, _) -> Psph.equal n m) acc then acc else x :: acc)
      [] normal
    |> List.rev
  in
  let kept =
    if not subsume then deduped
    else
      (* the survivors are pairwise unequal, so "strictly subsumed" is
         "subsumed by another survivor" *)
      List.filter
        (fun ((n, _) as x) ->
          not (List.exists (fun ((m, _) as y) -> y != x && Psph.subsumes m n) deduped))
        deduped
  in
  List.map snd kept

let union_connectivity ?(prune_subsumed = true) pss =
  let prune = prune ~subsume:prune_subsumed in
  let axiom ps = Axiom { ps; conn = Psph.connectivity_bound ps } in
  let rec split_last acc = function
    | [] -> assert false
    | [ x ] -> (List.rev acc, x)
    | x :: rest -> split_last (x :: acc) rest
  in
  (* [derive] takes a pruned list.  A prefix of a pruned list is pruned
     already — pruning drops a piece only for an equal earlier piece or a
     strict superset, and a prefix holds fewer of both — so only the
     intersection lists, which are new, get pruned on the way down. *)
  let rec derive = function
    | [] -> Empty
    | [ ps ] -> axiom ps
    | pss -> (
        let prefix, last = split_last [] pss in
        let left = derive prefix in
        let right = axiom last in
        match prune (List.map (fun ps -> Psph.inter ps last) prefix) with
        | [] -> Disjoint { left; right }
        | inters ->
            let inter = derive inters in
            let c = min (min (conn left) (conn right)) (conn inter + 1) in
            Glue { conn = c; left; right; inter })
  in
  derive (prune pss)

let union_realize ?vertex pss =
  List.fold_left
    (fun acc ps -> Complex.union acc (Psph.realize ?vertex ps))
    Complex.empty pss

let validate ?vertex pss proof =
  let c = union_realize ?vertex pss in
  Homology.is_k_connected c (conn proof)

let rec size = function
  | Empty -> 0
  | Axiom _ -> 1
  | Disjoint { left; right } -> 1 + size left + size right
  | Glue { left; right; inter; _ } -> 1 + size left + size right + size inter

let rec pp ppf = function
  | Empty -> Format.fprintf ppf "empty (conn -2)"
  | Axiom { ps; conn } ->
      Format.fprintf ppf "@[<h>Cor6: %a is %d-connected@]" Psph.pp ps conn
  | Disjoint { left; right } ->
      Format.fprintf ppf
        "@[<v 2>disjoint pieces: union is (-1)-connected@,left: %a@,right: %a@]"
        pp left pp right
  | Glue { conn; left; right; inter } ->
      Format.fprintf ppf
        "@[<v 2>Thm2: union is %d-connected@,K: %a@,L: %a@,K/\\L: %a@]" conn pp
        left pp right pp inter
