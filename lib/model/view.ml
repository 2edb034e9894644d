open Psph_topology

type t =
  | Init of Value.t
  | Round of { prev : t; heard : (Pid.t * t) list }
  | Timed_round of { p : int; prev : t; heard : (Pid.t * int * t) list }

let init v = Init v

let check_distinct_senders senders =
  let sorted = List.sort_uniq Pid.compare senders in
  if List.length sorted <> List.length senders then
    invalid_arg "View: duplicate senders in heard list"

(* senders strictly ascending: sorted and distinct already, as the
   builders list them, so the list is kept as it is *)
let rec ascending sender = function
  | a :: (b :: _ as rest) -> Pid.compare (sender a) (sender b) < 0 && ascending sender rest
  | [ _ ] | [] -> true

let sort_heard heard =
  if ascending fst heard then heard
  else begin
    check_distinct_senders (List.map fst heard);
    List.sort (fun (p, _) (q, _) -> Pid.compare p q) heard
  end

let sort_timed ~p heard =
  List.iter
    (fun (_, mu, _) ->
      if mu < 0 || mu > p then invalid_arg "View.timed_round: mu out of range")
    heard;
  let sender (q, _, _) = q in
  if ascending sender heard then heard
  else begin
    check_distinct_senders (List.map sender heard);
    List.sort (fun a b -> Pid.compare (sender a) (sender b)) heard
  end

let round ~prev ~heard = Round { prev; heard = sort_heard heard }

let timed_round ~p ~prev ~heard = Timed_round { p; prev; heard = sort_timed ~p heard }

let rank = function Init _ -> 0 | Round _ -> 1 | Timed_round _ -> 2

let rec compare a b =
  match (a, b) with
  | Init v, Init w -> Value.compare v w
  | Round a', Round b' ->
      let c = compare a'.prev b'.prev in
      if c <> 0 then c else compare_heard a'.heard b'.heard
  | Timed_round a', Timed_round b' ->
      let c = Int.compare a'.p b'.p in
      if c <> 0 then c
      else
        let c = compare a'.prev b'.prev in
        if c <> 0 then c else compare_timed a'.heard b'.heard
  | (Init _ | Round _ | Timed_round _), _ -> Int.compare (rank a) (rank b)

and compare_heard x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (p, s) :: x', (q, t) :: y' ->
      let c = Pid.compare p q in
      if c <> 0 then c
      else
        let c = compare s t in
        if c <> 0 then c else compare_heard x' y'

and compare_timed x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (p, m, s) :: x', (q, n, t) :: y' ->
      let c = Pid.compare p q in
      if c <> 0 then c
      else
        let c = Int.compare m n in
        if c <> 0 then c
        else
          let c = compare s t in
          if c <> 0 then c else compare_timed x' y'

let equal a b = compare a b = 0

let rec pp ppf = function
  | Init v -> Format.fprintf ppf "in:%a" Value.pp v
  | Round { prev; heard } ->
      Format.fprintf ppf "(%a|%a)" pp prev
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           (fun ppf (p, s) -> Format.fprintf ppf "%a<-%a" Pid.pp p pp s))
        heard
  | Timed_round { p; prev; heard } ->
      Format.fprintf ppf "(%a|p%d|%a)" pp prev p
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           (fun ppf (q, mu, s) -> Format.fprintf ppf "%a@@%d<-%a" Pid.pp q mu pp s))
        heard

let rec rounds = function
  | Init _ -> 0
  | Round { prev; _ } | Timed_round { prev; _ } -> 1 + rounds prev

let rec input = function
  | Init v -> v
  | Round { prev; _ } | Timed_round { prev; _ } -> input prev

let heard_pids = function
  | Init _ -> Pid.Set.empty
  | Round { heard; _ } -> Pid.Set.of_list (List.map fst heard)
  | Timed_round { heard; _ } ->
      Pid.Set.of_list (List.map (fun (q, _, _) -> q) heard)

let rec seen_values = function
  | Init v -> Value.Set.singleton v
  | Round { prev; heard } ->
      List.fold_left
        (fun acc (_, s) -> Value.Set.union acc (seen_values s))
        (seen_values prev) heard
  | Timed_round { prev; heard; _ } ->
      List.fold_left
        (fun acc (_, _, s) -> Value.Set.union acc (seen_values s))
        (seen_values prev) heard

let rec seen_pids = function
  | Init _ -> Pid.Set.empty
  | Round { prev; heard } ->
      List.fold_left
        (fun acc (q, s) -> Pid.Set.add q (Pid.Set.union acc (seen_pids s)))
        (seen_pids prev) heard
  | Timed_round { prev; heard; _ } ->
      List.fold_left
        (fun acc (q, _, s) -> Pid.Set.add q (Pid.Set.union acc (seen_pids s)))
        (seen_pids prev) heard

(* The one encoding of a round, over labels already encoded and [heard]
   already sorted.  The sub-labels go into the result as they are, so a
   round built from the previous round's vertex labels shares them
   physically instead of copying the whole history. *)
let encode_round prev heard =
  let heard_l = Label.List (List.map (fun (q, l) -> Label.Pair (Label.Pid q, l)) heard) in
  Label.Pair (Label.Int 1, Label.Pair (prev, heard_l))

let encode_timed p prev heard =
  let heard_l =
    Label.List
      (List.map (fun (q, mu, l) -> Label.List [ Label.Pid q; Label.Int mu; l ]) heard)
  in
  Label.Pair (Label.Int 2, Label.Pair (Label.Int p, Label.Pair (prev, heard_l)))

let round_label ~prev ~heard = encode_round prev (sort_heard heard)

let timed_round_label ~p ~prev ~heard = encode_timed p prev (sort_timed ~p heard)

let rec to_label = function
  | Init v -> Label.Pair (Label.Int 0, Value.to_label v)
  | Round { prev; heard } ->
      encode_round (to_label prev) (List.map (fun (q, s) -> (q, to_label s)) heard)
  | Timed_round { p; prev; heard } ->
      encode_timed p (to_label prev)
        (List.map (fun (q, mu, s) -> (q, mu, to_label s)) heard)

let rec of_label = function
  | Label.Pair (Label.Int 0, v) -> Init (Value.of_label v)
  | Label.Pair (Label.Int 1, Label.Pair (prev, Label.List heard)) ->
      let heard =
        List.map
          (function
            | Label.Pair (Label.Pid q, s) -> (q, of_label s)
            | _ -> invalid_arg "View.of_label: malformed heard entry")
          heard
      in
      Round { prev = of_label prev; heard }
  | Label.Pair
      (Label.Int 2, Label.Pair (Label.Int p, Label.Pair (prev, Label.List heard))) ->
      let heard =
        List.map
          (function
            | Label.List [ Label.Pid q; Label.Int mu; s ] -> (q, mu, of_label s)
            | _ -> invalid_arg "View.of_label: malformed timed heard entry")
          heard
      in
      Timed_round { p; prev = of_label prev; heard }
  | _ -> invalid_arg "View.of_label: not a view label"
