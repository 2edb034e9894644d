(* The consistent-hash ring, factored out of Router so that replica
   placement is pure arithmetic shared by Router (routing decisions) and
   the tests (qcheck placement laws).

   A node's virtual points hash only its own name, so a ring built with
   one more or one fewer node moves only the keys that node gains or
   loses. *)

type t = {
  nodes : string array;
  ring : (int * int) array;  (* (point, node index), sorted by point *)
}

(* virtual points per node *)
let vnodes = 64

(* Murmur3's fmix64: FNV-1a alone leaves names that differ only in their
   last characters ("127.0.0.1:40001#3", "...#4") on nearby points, so one
   node's vnodes bunch on one arc; the finalizer spreads every input bit
   over the whole word *)
let fmix64 h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

(* FNV-1a then fmix64, folded to a nonnegative OCaml int — deterministic
   across processes and runs, unlike Hashtbl.hash's unspecified
   evolution *)
let hash s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.to_int (Int64.shift_right_logical (fmix64 !h) 2)

let points name i =
  Array.init vnodes (fun v -> (hash (Printf.sprintf "%s#%d" name v), i))

let make names =
  if names = [] then invalid_arg "Ring.make: no nodes";
  let nodes = Array.of_list names in
  let seen = Hashtbl.create (Array.length nodes) in
  Array.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg ("Ring.make: duplicate node " ^ n);
      Hashtbl.add seen n ())
    nodes;
  let ring =
    Array.concat (Array.to_list (Array.mapi (fun i n -> points n i) nodes))
  in
  Array.sort compare ring;
  { nodes; ring }

let size t = Array.length t.nodes

let name t i = t.nodes.(i)

(* first ring index with point >= h, wrapping *)
let ring_start t h =
  let n = Array.length t.ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.ring.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let order t key =
  let nb = size t in
  let start = ring_start t (hash key) in
  let seen = Array.make nb false in
  let out = ref [] in
  let found = ref 0 in
  let n = Array.length t.ring in
  let i = ref 0 in
  while !found < nb && !i < n do
    let b = snd t.ring.((start + !i) mod n) in
    if not seen.(b) then begin
      seen.(b) <- true;
      out := b :: !out;
      incr found
    end;
    incr i
  done;
  List.rev !out
