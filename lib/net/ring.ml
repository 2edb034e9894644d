(* The consistent-hash ring, factored out of Router so that replica
   placement is pure arithmetic shared by Router (routing decisions),
   Replica (rebalance ownership) and the tests (qcheck placement laws).

   A node's virtual points hash only its own name, so membership change
   is local by construction: [add] merges the new node's sorted points
   into the existing array and every pre-existing point keeps its
   position relative to every key. *)

type t = {
  nodes : string array;
  vnodes : int;
  ring : (int * int) array;  (* (point, node index), sorted by point *)
}

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

let points vnodes name i =
  Array.init vnodes (fun v -> (hash (Printf.sprintf "%s#%d" name v), i))

let make ?(vnodes = 64) names =
  if names = [] then invalid_arg "Ring.make: no nodes";
  if vnodes < 1 then invalid_arg "Ring.make: vnodes < 1";
  let nodes = Array.of_list names in
  let seen = Hashtbl.create (Array.length nodes) in
  Array.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg ("Ring.make: duplicate node " ^ n);
      Hashtbl.add seen n ())
    nodes;
  let ring =
    Array.concat (Array.to_list (Array.mapi (fun i n -> points vnodes n i) nodes))
  in
  Array.sort compare ring;
  { nodes; vnodes; ring }

let size t = Array.length t.nodes

let name t i = t.nodes.(i)

let index t n =
  let rec go i =
    if i >= Array.length t.nodes then None
    else if t.nodes.(i) = n then Some i
    else go (i + 1)
  in
  go 0

let add t n =
  if index t n <> None then invalid_arg ("Ring.add: duplicate node " ^ n);
  let ring = Array.append t.ring (points t.vnodes n (size t)) in
  Array.sort compare ring;
  { nodes = Array.append t.nodes [| n |]; vnodes = t.vnodes; ring }

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

let owners t ~r key =
  if r < 1 then invalid_arg "Ring.owners: r < 1";
  List.filteri (fun i _ -> i < r) (order t key)

let successor t i =
  if size t < 2 then None
  else begin
    (* node i's lowest virtual point; the first other node met walking
       clockwise from it owned the start of i's key range before i
       joined (keys map to the first point >= their hash) *)
    let lowest = ref max_int in
    Array.iter
      (fun (p, b) -> if b = i && p < !lowest then lowest := p)
      t.ring;
    let n = Array.length t.ring in
    let start = ring_start t !lowest in
    let rec go k =
      if k >= n then None
      else
        let b = snd t.ring.((start + k) mod n) in
        if b <> i then Some b else go (k + 1)
    in
    go 0
  end
