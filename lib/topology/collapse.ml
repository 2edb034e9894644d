(* Discrete-Morse collapse over dense integer ids.

   The complex is indexed once: every simplex gets a dense id (its
   {!Simplex_index} row, offset past the lower dimensions), and one pass
   over the simplices records, for each simplex, the ids of its
   (dim+1)-cofaces and of its facets.  Because a complex is closed under
   containment, a simplex with exactly one (dim+1)-coface has exactly one
   proper coface overall — it is a free face, and its unique coface is
   maximal.  Removing such a pair keeps the survivor set a complex, so the
   same criterion stays valid throughout; the coface counts are maintained
   incrementally (each removal decrements the counts of the facets of both
   removed simplices), and a worklist of count-1 candidates drives the
   collapse to a fixpoint with no per-sweep recomputation. *)

type state = {
  sx : Simplex.t array;  (* id -> simplex *)
  cofaces : int list array;  (* ids of (dim+1)-cofaces *)
  facet_ids : int list array;  (* ids of facets; [] for vertices *)
  count : int array;  (* live (dim+1)-coface count *)
  alive : bool array;
}

let index c =
  let sx = Array.of_list (Complex.simplices c) in
  let n = Array.length sx in
  let idx = Simplex_index.create c in
  let cofaces = Array.make n [] in
  let facet_ids = Array.make n [] in
  let count = Array.make n 0 in
  (* ids run through the dimensions in order: a simplex's id is its row
     plus the id of the first simplex of its dimension *)
  let first = ref 0 and below = ref 0 in
  for d = 0 to Complex.dim c do
    let keys = Simplex_index.keys idx d in
    if d > 0 then
      Array.iteri
        (fun row k ->
          let t = !first + row in
          for i = 0 to d do
            let f = !below + Simplex_index.face_row idx k i in
            cofaces.(f) <- t :: cofaces.(f);
            count.(f) <- count.(f) + 1;
            facet_ids.(t) <- f :: facet_ids.(t)
          done)
        keys;
    below := !first;
    first := !first + Array.length keys
  done;
  { sx; cofaces; facet_ids; count; alive = Array.make n true }

(* Run the worklist to a fixpoint; returns the Morse matching as id pairs
   (free face, coface), most recent first. *)
let run st =
  let q = Queue.create () in
  Array.iteri (fun f c -> if c = 1 then Queue.add f q) st.count;
  let pairs = ref [] in
  let release f =
    if st.alive.(f) then begin
      st.count.(f) <- st.count.(f) - 1;
      if st.count.(f) = 1 then Queue.add f q
    end
  in
  while not (Queue.is_empty q) do
    let f = Queue.pop q in
    if st.alive.(f) && st.count.(f) = 1 then begin
      let t = List.find (fun t -> st.alive.(t)) st.cofaces.(f) in
      st.alive.(f) <- false;
      st.alive.(t) <- false;
      pairs := (f, t) :: !pairs;
      List.iter release st.facet_ids.(f);
      List.iter release st.facet_ids.(t)
    end
  done;
  !pairs

let critical st =
  let acc = ref [] in
  for i = Array.length st.sx - 1 downto 0 do
    if st.alive.(i) then acc := st.sx.(i) :: !acc
  done;
  !acc

let matching c =
  let st = index c in
  let pairs = run st in
  (List.rev_map (fun (f, t) -> (st.sx.(f), st.sx.(t))) pairs, critical st)

let reduce c =
  if Complex.is_empty c then (c, 0)
  else begin
    let st = index c in
    let removed = 2 * List.length (run st) in
    if removed = 0 then (c, 0) else (Complex.of_closure (critical st), removed)
  end

let collapse c = fst (reduce c)

let free_faces c =
  if Complex.is_empty c then []
  else begin
    let st = index c in
    let acc = ref [] in
    Array.iteri
      (fun f n ->
        if n = 1 then
          acc := (st.sx.(f), st.sx.(List.hd st.cofaces.(f))) :: !acc)
      st.count;
    !acc
  end

let is_collapsible_to_point c =
  let r = collapse c in
  Complex.num_simplices r = 1 && Complex.dim r = 0
