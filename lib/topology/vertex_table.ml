(* A per-build table of vertices and faces over small integers.

   Vertices: an open-addressing table of ids keyed on
   [Simplex_index.vertex_hash], kept by id next to the vertex, so
   interning a vertex hashes it once and the index reuses that hash.
   Arrival ids are dense but in no particular order.

   Faces: one open-addressing int set per dimension.  A face of [s] ids
   packs into one int at [width (s - 1)] bits per id, first id most
   significant; a face with an id too large for that width goes into one
   int-array table instead.  Packability depends only on the face's
   ids, so each face has exactly one home.

   [add_facet] marks a facet and its faces by position mask, pruning at a
   face already present: every face is added through this closure walk,
   so a present face has all its faces present too.

   [finalize] numbers the vertices that are 0-faces in [Vertex.compare]
   order, renumbers every face (ids stay ascending within a face, since
   the renumbering is monotone on them), and sorts each dimension's codes
   at the index's own id width: the sorted codes are the index's packed
   rows, and unpacking them gives its keys. *)

let max_faces = 2_000_000

let over_budget () =
  failwith (Printf.sprintf "build stopped: more than %d simplices (the build budget)" max_faces)

(* open-addressing set of codes >= 0; [-1] marks an empty slot *)
type codes = { mutable slots : int array; mutable shift : int; mutable n : int }

(* multiplicative hashing: the top bits of [x * golden] pick the slot *)
let slot shift x = (x * 0x2545f4914f6cdd1d) lsr shift

let codes_create () = { slots = Array.make 16 (-1); shift = Sys.int_size - 4; n = 0 }

let codes_insert slots shift code =
  let mask = Array.length slots - 1 in
  let rec probe i =
    let x = Array.unsafe_get slots i in
    if x = code then false
    else if x < 0 then begin
      Array.unsafe_set slots i code;
      true
    end
    else probe ((i + 1) land mask)
  in
  probe (slot shift code)

let codes_add c code =
  if codes_insert c.slots c.shift code then begin
    c.n <- c.n + 1;
    if 2 * c.n > Array.length c.slots then begin
      let old = c.slots in
      c.slots <- Array.make (2 * Array.length old) (-1);
      c.shift <- c.shift - 1;
      Array.iter (fun x -> if x >= 0 then ignore (codes_insert c.slots c.shift x)) old
    end;
    true
  end
  else false

(* faces too wide to pack, hashed on every id: the polymorphic hash reads
   only the first ten, and the faces of one wide facet share most of them *)
module Wide = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  let hash a = Array.fold_left (fun h id -> (h * 0x01000193) lxor id) 0x811c9dc5 a land max_int
end)

type t = {
  mutable verts : Vertex.t array;  (* verts.(id), for id < nv *)
  mutable hashes : int array;  (* hashes.(id) = Simplex_index.vertex_hash verts.(id) *)
  mutable nv : int;
  mutable vslots : int array;  (* vertex ids; [-1] marks an empty slot *)
  mutable vshift : int;
  mutable packed : codes array;  (* packed.(d): the packable d-faces *)
  wide : unit Wide.t;  (* the faces that do not pack *)
  mutable counts : int array;  (* counts.(d): d-faces, packed or wide *)
  mutable total : int;
}

let create () =
  {
    verts = Array.make 16 (Vertex.Anon 0);
    hashes = Array.make 16 0;
    nv = 0;
    vslots = Array.make 32 (-1);
    vshift = Sys.int_size - 5;
    packed = [||];
    wide = Wide.create 1;
    counts = [||];
    total = 0;
  }

let vslot_insert t id =
  let mask = Array.length t.vslots - 1 in
  let rec probe i =
    if Array.unsafe_get t.vslots i < 0 then Array.unsafe_set t.vslots i id
    else probe ((i + 1) land mask)
  in
  probe (slot t.vshift t.hashes.(id))

let intern t v =
  let h = Simplex_index.vertex_hash v in
  let mask = Array.length t.vslots - 1 in
  let rec probe i =
    let id = Array.unsafe_get t.vslots i in
    if id < 0 then begin
      let id = t.nv in
      if id = Array.length t.verts then begin
        let grow a fill = Array.append a (Array.make (Array.length a) fill) in
        t.verts <- grow t.verts (Vertex.Anon 0);
        t.hashes <- grow t.hashes 0
      end;
      t.verts.(id) <- v;
      t.hashes.(id) <- h;
      t.nv <- id + 1;
      Array.unsafe_set t.vslots i id;
      if 2 * t.nv > Array.length t.vslots then begin
        t.vslots <- Array.make (2 * Array.length t.vslots) (-1);
        t.vshift <- t.vshift - 1;
        for id = 0 to t.nv - 1 do
          vslot_insert t id
        done
      end;
      id
    end
    else if t.hashes.(id) = h && Vertex.equal t.verts.(id) v then id
    else probe ((i + 1) land mask)
  in
  probe (slot t.vshift h)

let simplex t ids =
  Simplex.of_sorted_list (Array.fold_right (fun id acc -> t.verts.(id) :: acc) ids [])

(* bits per id of a packed d-face while building *)
let width d = (Sys.int_size - 1) / (d + 1)

let ensure_dim t d =
  let have = Array.length t.counts in
  if d >= have then begin
    t.packed <- Array.append t.packed (Array.init (d + 1 - have) (fun _ -> codes_create ()));
    t.counts <- Array.append t.counts (Array.make (d + 1 - have) 0)
  end

(* add the face of [ids] at the positions in [mask]; whether it is new *)
let add_face t ids mask =
  let m = Array.length ids in
  let s = ref 0 in
  for i = 0 to m - 1 do
    if mask land (1 lsl i) <> 0 then incr s
  done;
  let d = !s - 1 in
  let w = width d in
  let code = ref 0 and fits = ref true in
  for i = 0 to m - 1 do
    if mask land (1 lsl i) <> 0 then begin
      let id = Array.unsafe_get ids i in
      if id lsr w <> 0 then fits := false;
      code := (!code lsl w) lor id
    end
  done;
  ensure_dim t d;
  let fresh =
    if !fits then codes_add t.packed.(d) !code
    else begin
      let f = Array.make !s 0 and j = ref 0 in
      for i = 0 to m - 1 do
        if mask land (1 lsl i) <> 0 then begin
          f.(!j) <- ids.(i);
          incr j
        end
      done;
      if Wide.mem t.wide f then false
      else begin
        Wide.add t.wide f ();
        true
      end
    end
  in
  if fresh then begin
    t.counts.(d) <- t.counts.(d) + 1;
    t.total <- t.total + 1;
    if t.total > max_faces then over_budget ()
  end;
  fresh

let add_facet t ids =
  let m = Array.length ids in
  if m >= Sys.int_size - 1 then invalid_arg "Vertex_table.add_facet: facet too wide";
  let rec mark mask =
    if add_face t ids mask then
      for i = 0 to m - 1 do
        let b = 1 lsl i in
        if mask land b <> 0 && mask <> b then mark (mask lxor b)
      done
  in
  if m > 0 then mark ((1 lsl m) - 1)

(* Ascending sort of ints in [0, 2^width): least significant byte first,
   one counting pass per byte, with no comparison closure; insertion sort
   for short arrays. *)
let sort_codes a width =
  let n = Array.length a in
  if n <= 32 then
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let count = Array.make 256 0 in
    let src = ref a and dst = ref (Array.make n 0) in
    let shift = ref 0 in
    while !shift < width do
      let s = !src and d = !dst and sh = !shift in
      Array.fill count 0 256 0;
      for i = 0 to n - 1 do
        let b = (Array.unsafe_get s i lsr sh) land 255 in
        count.(b) <- count.(b) + 1
      done;
      let sum = ref 0 in
      for b = 0 to 255 do
        let c = count.(b) in
        count.(b) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let x = Array.unsafe_get s i in
        let b = (x lsr sh) land 255 in
        Array.unsafe_set d count.(b) x;
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s;
      shift := sh + 8
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

let compare_keys (a : int array) b =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* the sorted vertices of the complex and its index *)
let finalize t =
  let top = Array.length t.counts - 1 in
  (* the vertices of the complex are its 0-faces, and they always pack *)
  let order = Array.make (if top < 0 then 0 else t.counts.(0)) 0 in
  if top >= 0 then begin
    let j = ref 0 in
    Array.iter
      (fun x ->
        if x >= 0 then begin
          order.(!j) <- x;
          incr j
        end)
      t.packed.(0).slots
  end;
  Array.stable_sort (fun a b -> Vertex.compare t.verts.(a) t.verts.(b)) order;
  let rank = Array.make t.nv (-1) in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  let verts = Array.make (Array.length order) (Vertex.Anon 0) in
  Array.iteri (fun r id -> verts.(r) <- t.verts.(id)) order;
  let hashes = Array.map (fun id -> t.hashes.(id)) order in
  let bits = Simplex_index.id_bits (Array.length order) in
  let wide = Array.make (top + 1) [] in
  Wide.iter
    (fun f () ->
      let d = Array.length f - 1 in
      wide.(d) <- f :: wide.(d))
    t.wide;
  let packed = Array.make (max 0 top) [||] in
  let keys =
    Array.init (top + 1) (fun d ->
        let s = d + 1 and w = width d in
        let wmask = (1 lsl w) - 1 in
        (* [each f]: [f j] for the [j]-th d-face, its new ids in [cur] *)
        let cur = Array.make s 0 in
        let each f =
          let j = ref 0 in
          let next () =
            f !j;
            incr j
          in
          Array.iter
            (fun x ->
              if x >= 0 then begin
                for i = 0 to s - 1 do
                  cur.(i) <- rank.((x lsr ((s - 1 - i) * w)) land wmask)
                done;
                next ()
              end)
            t.packed.(d).slots;
          List.iter
            (fun f ->
              Array.iteri (fun i id -> cur.(i) <- rank.(id)) f;
              next ())
            wide.(d)
        in
        (* filled in place: [Array.map] would seed a long array with a
           young key, which forces a minor collection *)
        let ks = Array.make t.counts.(d) [||] in
        if s * bits <= Sys.int_size - 1 then begin
          (* repack at the index's width and sort the ints: the sorted
             codes are the rows, and unpacking them gives the keys *)
          let codes = Array.make t.counts.(d) 0 in
          each (fun j ->
              let c = ref 0 in
              for i = 0 to s - 1 do
                c := (!c lsl bits) lor cur.(i)
              done;
              codes.(j) <- !c);
          sort_codes codes (s * bits);
          if d < top then packed.(d) <- codes;
          let bmask = (1 lsl bits) - 1 in
          Array.iteri
            (fun row code ->
              let k = Array.make s 0 in
              for i = 0 to s - 1 do
                k.(i) <- (code lsr ((s - 1 - i) * bits)) land bmask
              done;
              ks.(row) <- k)
            codes
        end
        else begin
          (* too wide for one word at the index's width: sort the keys *)
          each (fun j -> ks.(j) <- Array.copy cur);
          Array.stable_sort compare_keys ks
        end;
        ks)
  in
  (verts, Simplex_index.of_sorted ~hashes ~keys ~packed:(fun d -> packed.(d)))

let index t = snd (finalize t)

let complex t =
  let verts, idx = finalize t in
  let acc = ref [] in
  for d = Simplex_index.dim idx downto 0 do
    let keys = Simplex_index.keys idx d in
    for row = Array.length keys - 1 downto 0 do
      acc :=
        Simplex.of_sorted_list
          (Array.fold_right (fun id l -> verts.(id) :: l) keys.(row) [])
        :: !acc
    done
  done;
  Complex.of_closure !acc
