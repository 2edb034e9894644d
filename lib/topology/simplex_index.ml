(* Per-complex dense numbering of simplexes.

   [Complex.iter] visits simplexes in [Simplex.compare] order: by size,
   then lexicographically by [Vertex.compare].  So the 0-simplexes come
   first, in [Vertex.compare] order, and numbering vertices by arrival
   makes vertex ids canonical (0..V-1) and monotone in [Vertex.compare].
   Every key (the vertex ids of a simplex, in its sorted vertex order) is
   then ascending, and the keys of one dimension arrive in lexicographic
   order: a simplex's row is its position within its dimension.

   Row lookup packs a key into one int when its ids fit, [bits] bits per
   id with the first vertex most significant, so packed keys of one
   dimension are ascending ints and a binary search finds a row.  Wider
   keys fall back to an int-array [Hashtbl] (hashing and equality on
   immediate ints are structural).

   Each vertex's structural hash is computed once, when it is numbered,
   and kept by id: a content key folds those instead of hashing every
   vertex occurrence again.

   The index is built eagerly and never mutated afterwards, so any number
   of domains may read it concurrently. *)

let vertex_hash v = Intern.vertex_hash 0x811c9dc5 v

module VH = Hashtbl.Make (struct
  type t = Vertex.t

  let equal = Vertex.equal

  let hash = vertex_hash
end)

type rows = Packed of int array | Table of (int array, int) Hashtbl.t

type t = {
  bits : int;  (* bits per packed vertex id *)
  keys : int array array array;  (* keys.(d).(row) *)
  rows : rows array;  (* face lookup, for dimensions below the top *)
  hashes : int array;  (* hashes.(id) = vertex_hash of vertex [id] *)
  complete : bool;  (* no dimension was cut by [max_dim] *)
}

let pack_skip bits k skip =
  let acc = ref 0 in
  for i = 0 to Array.length k - 1 do
    if i <> skip then acc := (!acc lsl bits) lor Array.unsafe_get k i
  done;
  !acc

(* bits needed to hold any id of [nv] vertices *)
let id_bits nv =
  let rec loop b = if max 0 (nv - 1) lsr b = 0 then b else loop (b + 1) in
  loop 1

(* face lookup for the dimensions below [top]: the packed keys where
   [(d+1)] ids fit in a word ([packed d] gives them ascending), an
   int-array table otherwise *)
let rows_of ~bits ~top keys packed =
  Array.init (max 0 top) (fun d ->
      if (d + 1) * bits <= Sys.int_size - 1 then Packed (packed d)
      else begin
        let tbl = Hashtbl.create (2 * Array.length keys.(d)) in
        Array.iteri (fun row k -> Hashtbl.replace tbl k row) keys.(d);
        Table tbl
      end)

let create ?max_dim c =
  let dim = Complex.dim c in
  let top = match max_dim with None -> dim | Some m -> max (-1) (min m dim) in
  let nv = Complex.count_of_dim c 0 in
  let bits = id_bits nv in
  let keys =
    Array.init (top + 1) (fun d -> Array.make (Complex.count_of_dim c d) [||])
  in
  let filled = Array.make (top + 1) 0 in
  let hashes = Array.make nv 0 in
  let ids = VH.create (2 * nv) in
  let id v = VH.find ids v in
  (try
     Complex.iter
       (fun s ->
         let d = Simplex.dim s in
         if d > top then raise_notrace Exit;
         let row = filled.(d) in
         let k =
           if d = 0 then begin
             let v = (Simplex.vertex_array s).(0) in
             hashes.(row) <- vertex_hash v;
             VH.add ids v row;
             [| row |]
           end
           else Array.map id (Simplex.vertex_array s)
         in
         keys.(d).(row) <- k;
         filled.(d) <- row + 1)
       c
   with Exit -> ());
  let rows =
    rows_of ~bits ~top keys (fun d ->
        Array.map (fun k -> pack_skip bits k (-1)) keys.(d))
  in
  { bits; keys; rows; hashes; complete = top = dim }

let of_sorted ~hashes ~keys ~packed =
  let bits = id_bits (Array.length hashes) in
  let top = Array.length keys - 1 in
  { bits; keys; rows = rows_of ~bits ~top keys packed; hashes; complete = true }

let keys t d = t.keys.(d)

let dim t = Array.length t.keys - 1

let count t d = if d < 0 || d >= Array.length t.keys then 0 else Array.length t.keys.(d)

let complete t = t.complete

let vertex_hashes t = t.hashes

let packed t d = match t.rows.(d) with Packed _ -> true | Table _ -> false

let face_row t k skip =
  let n = Array.length k in
  match t.rows.(n - 2) with
  | Packed rows ->
      let key = pack_skip t.bits k skip in
      let lo = ref 0 and hi = ref (Array.length rows) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if Array.unsafe_get rows mid <= key then lo := mid else hi := mid
      done;
      !lo
  | Table tbl ->
      let f = Array.make (n - 1) 0 in
      Array.blit k 0 f 0 skip;
      Array.blit k (skip + 1) f skip (n - 1 - skip);
      Hashtbl.find tbl f
