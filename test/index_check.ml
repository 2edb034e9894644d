(* Whether two indexes agree, as the tests that hold a builder's index to
   [Simplex_index.create] of the same complex need it. *)

open Psph_topology

(* two indexes number the same simplexes the same way: keys, vertex
   hashes, and the row of every face a boundary looks up *)
let same name (a : Simplex_index.t) b =
  let check what = Alcotest.(check bool) (name ^ ": " ^ what) true in
  check "dim" (Simplex_index.dim a = Simplex_index.dim b);
  check "complete" (Simplex_index.complete a && Simplex_index.complete b);
  check "vertex hashes" (Simplex_index.vertex_hashes a = Simplex_index.vertex_hashes b);
  for d = 0 to Simplex_index.dim a do
    check (Printf.sprintf "keys of dim %d" d) (Simplex_index.keys a d = Simplex_index.keys b d);
    if d >= 1 then begin
      check (Printf.sprintf "row lookup of dim %d" (d - 1))
        (Simplex_index.packed a (d - 1) = Simplex_index.packed b (d - 1));
      Array.iter
        (fun k ->
          for i = 0 to d do
            if Simplex_index.face_row a k i <> Simplex_index.face_row b k i then
              check (Printf.sprintf "face rows of dim %d" d) false
          done)
        (Simplex_index.keys a d)
    end
  done
