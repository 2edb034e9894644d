(* The content key as a direct fold over a complex: every simplex in
   [Complex.iter] order, every vertex occurrence hashed where it occurs,
   rendered as the 32-hex string [Key.to_hex] prints.  It shares no code
   with [Key.of_index], which folds a [Simplex_index]'s per-vertex hashes
   instead, so the tests hold that fold to this one. *)

open Psph_topology

let hex c =
  let h1 = ref 0x811c9dc5 and h2 = ref 0x2545f491 in
  Complex.iter
    (fun s ->
      h1 := (!h1 * 0x01000193) lxor 0x3b;
      h2 := (!h2 * 0x9e3779b1) lxor 0x67;
      Array.iter
        (fun v ->
          let vh = Intern.vertex_hash 0x811c9dc5 v in
          h1 := (!h1 * 0x01000193) lxor (vh land max_int);
          h2 := (!h2 * 0x9e3779b1) lxor (vh land max_int))
        (Simplex.vertex_array s))
    c;
  Printf.sprintf "%016x%016x" (!h1 land max_int) (!h2 land max_int)
