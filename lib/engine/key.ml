(* A canonical content address for complexes.

   Two complexes that are structurally equal (same simplex set) must map to
   the same key no matter how they were built, so the key is derived by
   folding over the whole simplex set in its canonical [Simplex.compare]
   order, mixing in each vertex's [Intern.vertex_hash] — a pure
   structural hash that no process state enters, so keys survive
   serialization and are stable across processes (the on-disk store
   depends on this).

   The fold runs over a {!Simplex_index}: its keys of each dimension are
   the simplexes in exactly that order, and it has already hashed each
   vertex once while numbering it, so the fold reads one int per vertex
   occurrence instead of walking the vertex's label again.

   Hashing every simplex rather than just the facets is deliberate: the
   simplex set determines the complex (and vice versa), and extracting
   facets means maximality tests that cost as much as the homology the
   cache is trying to avoid, whereas one fold over the set is linear in
   its size.  The fold touches no memo field, so concurrent keying of a
   shared complex value is write-free.

   Two independent 62-bit accumulators with distinct odd multipliers keep
   the collision probability negligible at any realistic cache size; a
   collision would silently alias two cache slots, so "negligible" is the
   requirement. *)

open Psph_topology

type t = { h1 : int; h2 : int }

let equal a b = a.h1 = b.h1 && a.h2 = b.h2

let compare a b =
  match Int.compare a.h1 b.h1 with 0 -> Int.compare a.h2 b.h2 | c -> c

let hash a = a.h1 lxor (a.h2 * 0x9e3779b1)

let of_index idx =
  if not (Simplex_index.complete idx) then
    invalid_arg "Key.of_index: the index omits dimensions";
  let hashes = Simplex_index.vertex_hashes idx in
  let h1 = ref 0x811c9dc5 and h2 = ref 0x2545f491 in
  for d = 0 to Simplex_index.dim idx do
    Array.iter
      (fun k ->
        (* simplex separator: keeps [{01},{2}] distinct from [{012}] *)
        h1 := (!h1 * 0x01000193) lxor 0x3b;
        h2 := (!h2 * 0x9e3779b1) lxor 0x67;
        Array.iter
          (fun id ->
            let vh = Array.unsafe_get hashes id land max_int in
            h1 := (!h1 * 0x01000193) lxor vh;
            h2 := (!h2 * 0x9e3779b1) lxor vh)
          k)
      (Simplex_index.keys idx d)
  done;
  { h1 = !h1 land max_int; h2 = !h2 land max_int }

let of_complex c = of_index (Simplex_index.create c)

(* Same double-accumulator scheme over a canonical spec string — used to
   give symbolic (never-realized) answers a stable identifier without
   building the complex the string denotes.  The byte fold can collide
   with [of_complex] keys only accidentally (the two populations never
   share a cache: symbolic answers are not cached). *)
let of_string s =
  let h1 = ref 0x811c9dc5 and h2 = ref 0x2545f491 in
  String.iter
    (fun ch ->
      let b = Char.code ch in
      h1 := (!h1 * 0x01000193) lxor b;
      h2 := (!h2 * 0x9e3779b1) lxor b)
    s;
  { h1 = !h1 land max_int; h2 = !h2 land max_int }

let to_hex k = Printf.sprintf "%016x%016x" k.h1 k.h2

let of_hex_opt s =
  if String.length s <> 32 then None
  else
    match
      ( int_of_string_opt ("0x" ^ String.sub s 0 16),
        int_of_string_opt ("0x" ^ String.sub s 16 16) )
    with
    | Some h1, Some h2 when h1 >= 0 && h2 >= 0 -> Some { h1; h2 }
    | _ -> None
