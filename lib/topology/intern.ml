(* Structural hashing of labels and vertices.

   Polymorphic [Hashtbl.hash]/[(=)] are not usable on [Vertex.t]: labels may
   contain [Pid.Set.t] values whose balanced-tree shape depends on
   construction order.  We therefore hash by structure-aware recursion (sets
   are folded over their canonical element order); tables keyed on vertices
   pair this hash with [Vertex.equal]. *)

let mix h x = (h * 0x01000193) lxor (x land max_int)

let rec label_hash h l =
  match (l : Label.t) with
  | Unit -> mix h 1
  | Bool b -> mix (mix h 2) (Bool.to_int b)
  | Int i -> mix (mix h 3) i
  | Str s -> mix (mix h 4) (Hashtbl.hash s)
  | Pid p -> mix (mix h 5) (Pid.to_int p)
  | Pid_set s -> Pid.Set.fold (fun p h -> mix h (Pid.to_int p)) s (mix h 6)
  | Vec v -> Array.fold_left mix (mix h 7) v
  | Pair (a, b) -> label_hash (label_hash (mix h 8) a) b
  | List xs -> List.fold_left label_hash (mix h 9) xs

let rec vertex_hash h v =
  match (v : Vertex.t) with
  | Proc (p, l) -> label_hash (mix (mix h 17) (Pid.to_int p)) l
  | Anon i -> mix (mix h 18) i
  | Bary vs -> List.fold_left vertex_hash (mix h 19) vs
