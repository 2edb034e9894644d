type t = Vertex.t array
(* invariant: strictly sorted by Vertex.compare *)

let empty = [||]

let of_list vs =
  let arr = Array.of_list (List.sort_uniq Vertex.compare vs) in
  arr

let of_sorted_list vs = Array.of_list vs

let of_procs ps = of_list (List.map (fun (p, l) -> Vertex.proc p l) ps)

let proc_simplex n =
  of_list (List.init (n + 1) (fun i -> Vertex.proc i Label.Unit))

let dim s = Array.length s - 1

let cardinal = Array.length

let is_empty s = Array.length s = 0

let vertices = Array.to_list

let vertex_array s = s

let mem v s =
  (* binary search *)
  let lo = ref 0 and hi = ref (Array.length s) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Vertex.compare v s.(mid) in
    if c = 0 then found := true
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  !found

let subset a b =
  let la = Array.length a and lb = Array.length b in
  if la > lb then false
  else
    let rec loop i j =
      if i >= la then true
      else if j >= lb then false
      else
        let c = Vertex.compare a.(i) b.(j) in
        if c = 0 then loop (i + 1) (j + 1)
        else if c > 0 then loop i (j + 1)
        else false
    in
    loop 0 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let c = Int.compare la lb in
  if c <> 0 then c
  else
    let rec loop i =
      if i >= la then 0
      else
        let c = Vertex.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let equal a b = compare a b = 0

let proper_subset a b = subset a b && not (equal a b)

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Vertex.pp)
    (vertices s)

let add v s =
  (* single sorted insert: binary-search the unique position of [v] and
     splice it in, which preserves the strictly-sorted invariant without
     the O(n log n) re-sort that [of_list] would pay *)
  let n = Array.length s in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Vertex.compare v s.(mid) <= 0 then hi := mid else lo := mid + 1
  done;
  let i = !lo in
  if i < n && Vertex.compare v s.(i) = 0 then s
  else begin
    let out = Array.make (n + 1) v in
    Array.blit s 0 out 0 i;
    Array.blit s i out (i + 1) (n - i);
    out
  end

let remove v s = Array.of_seq (Seq.filter (fun u -> not (Vertex.equal u v)) (Array.to_seq s))

let union a b =
  (* merge of two sorted arrays *)
  let la = Array.length a and lb = Array.length b in
  let out = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    let c = Vertex.compare a.(!i) b.(!j) in
    if c = 0 then begin
      out := a.(!i) :: !out;
      incr i;
      incr j
    end
    else if c < 0 then begin
      out := a.(!i) :: !out;
      incr i
    end
    else begin
      out := b.(!j) :: !out;
      incr j
    end
  done;
  while !i < la do
    out := a.(!i) :: !out;
    incr i
  done;
  while !j < lb do
    out := b.(!j) :: !out;
    incr j
  done;
  Array.of_list (List.rev !out)

let inter a b = Array.of_seq (Seq.filter (fun v -> mem v b) (Array.to_seq a))

let diff a b = Array.of_seq (Seq.filter (fun v -> not (mem v b)) (Array.to_seq a))

let facets s =
  let n = Array.length s in
  if n = 0 then []
  else
    List.init n (fun i ->
        Array.init (n - 1) (fun j -> if j < i then s.(j) else s.(j + 1)))

let faces s =
  (* all 2^n subsets, preserving sortedness *)
  let n = Array.length s in
  let rec loop i =
    if i >= n then [ [] ]
    else
      let rest = loop (i + 1) in
      List.rev_append (List.rev_map (fun f -> s.(i) :: f) rest) rest
  in
  List.map Array.of_list (loop 0)

let proper_faces s =
  List.filter (fun f -> Array.length f > 0 && Array.length f < Array.length s) (faces s)

let map f s = of_list (List.map f (vertices s))

let ids s =
  Array.fold_left
    (fun acc v -> match Vertex.pid v with Some p -> Pid.Set.add p acc | None -> acc)
    Pid.Set.empty s

let labels s =
  Array.fold_left
    (fun acc v -> match Vertex.label v with Some l -> l :: acc | None -> acc)
    [] s
  |> List.rev

let label_of p s =
  let rec find i =
    if i = Array.length s then None
    else
      match Array.unsafe_get s i with
      | Vertex.Proc (q, l) when Pid.equal p q -> Some l
      | Vertex.Proc _ | Vertex.Anon _ | Vertex.Bary _ -> find (i + 1)
  in
  find 0

(* the vertices are sorted, pid first: distinct pids ascend *)
let is_chromatic s =
  let rec from i prev =
    i = Array.length s
    ||
    match Array.unsafe_get s i with
    | Vertex.Proc (p, _) -> Pid.compare prev p < 0 && from (i + 1) p
    | Vertex.Anon _ | Vertex.Bary _ -> false
  in
  Array.length s = 0
  ||
  match s.(0) with
  | Vertex.Proc (p, _) -> from 1 p
  | Vertex.Anon _ | Vertex.Bary _ -> false

(* the vertices of [s] that [keep] holds, in order *)
let filter keep s =
  let n = Array.fold_left (fun n v -> if keep v then n + 1 else n) 0 s in
  if n = Array.length s then s
  else begin
    let r = Array.make n (Vertex.Anon 0) and j = ref 0 in
    Array.iter
      (fun v ->
        if keep v then begin
          r.(!j) <- v;
          incr j
        end)
      s;
    r
  end

let without_ids k s =
  filter
    (function Vertex.Proc (p, _) -> not (Pid.Set.mem p k) | Vertex.Anon _ | Vertex.Bary _ -> true)
    s

let restrict_ids k s =
  filter
    (function Vertex.Proc (p, _) -> Pid.Set.mem p k | Vertex.Anon _ | Vertex.Bary _ -> false)
    s
