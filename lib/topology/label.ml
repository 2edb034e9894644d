type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pid of Pid.t
  | Pid_set of Pid.Set.t
  | Vec of int array
  | Pair of t * t
  | List of t list

let rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Pid _ -> 4
  | Pid_set _ -> 5
  | Vec _ -> 6
  | Pair _ -> 7
  | List _ -> 8

let compare_array a b =
  let la = Array.length a and lb = Array.length b in
  let c = Int.compare la lb in
  if c <> 0 then c
  else
    let rec loop i =
      if i >= la then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

(* The round builders put the previous round's vertex labels into a
   round's label by reference ([View.round_label]), so labels of one
   complex share their history physically; labels are immutable, so
   physically equal labels are equal and the identity check skips walking
   the shared part. *)
let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Unit, Unit -> 0
    | Bool x, Bool y -> Bool.compare x y
    | Int x, Int y -> Int.compare x y
    | Str x, Str y -> String.compare x y
    | Pid x, Pid y -> Pid.compare x y
    | Pid_set x, Pid_set y -> Pid.Set.compare x y
    | Vec x, Vec y -> compare_array x y
    | Pair (x1, x2), Pair (y1, y2) ->
        let c = compare x1 y1 in
        if c <> 0 then c else compare x2 y2
    | List x, List y -> compare_list x y
    | ( (Unit | Bool _ | Int _ | Str _ | Pid _ | Pid_set _ | Vec _ | Pair _ | List _),
        _ ) ->
        Int.compare (rank a) (rank b)

and compare_list x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | a :: x', b :: y' ->
      let c = compare a b in
      if c <> 0 then c else compare_list x' y'

let equal a b = compare a b = 0

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Str s -> Format.fprintf ppf "%S" s
  | Pid p -> Pid.pp ppf p
  | Pid_set s -> Pid.Set.pp ppf s
  | Vec v ->
      Format.fprintf ppf "<%a>"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        (Array.to_list v)
  | Pair (a, b) -> Format.fprintf ppf "(%a,%a)" pp a pp b
  | List xs ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
           pp)
        xs

let to_string l = Format.asprintf "%a" pp l

let pid_set ps = Pid_set (Pid.Set.of_list ps)

let ints xs = List (Stdlib.List.map (fun x -> Int x) xs)
