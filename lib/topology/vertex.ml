type t = Proc of Pid.t * Label.t | Anon of int | Bary of t list

let proc p l = Proc (p, l)

let anon i = Anon i

let rank = function Proc _ -> 0 | Anon _ -> 1 | Bary _ -> 2

(* identity first, as in [Label.compare] *)
let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Proc (p, l), Proc (q, m) ->
        let c = Pid.compare p q in
        if c <> 0 then c else Label.compare l m
    | Anon i, Anon j -> Int.compare i j
    | Bary x, Bary y -> compare_list x y
    | (Proc _ | Anon _ | Bary _), _ -> Int.compare (rank a) (rank b)

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
  | Proc (p, Label.Unit) -> Pid.pp ppf p
  | Proc (p, l) -> Format.fprintf ppf "%a:%a" Pid.pp p Label.pp l
  | Anon i -> Format.fprintf ppf "v%d" i
  | Bary vs ->
      Format.fprintf ppf "b(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           pp)
        vs

let pid = function Proc (p, _) -> Some p | Anon _ | Bary _ -> None

let label = function Proc (_, l) -> Some l | Anon _ | Bary _ -> None

let relabel f = function
  | Proc (p, l) -> Proc (p, f l)
  | (Anon _ | Bary _) as v -> v

module Self = struct
  type nonrec t = t

  let compare = compare
end

module Set = Stdlib.Set.Make (Self)
module Map = Stdlib.Map.Make (Self)
