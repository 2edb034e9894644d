(* Bit-packed Z/2 rank.  A column is [Sys.int_size]-bit words; word [w]
   bit [b] encodes row [w * bits + b].  Rank uses the low-based column
   reduction of persistent homology, with word-level XOR.  The multi-word
   reducer never holds the matrix: it reduces one column at a time and
   keeps a column only once it becomes a pivot. *)

let bits = Sys.int_size

let words_for rows = (rows + bits - 1) / bits

(* Index of the highest set bit of [w]; [w] must be nonzero. *)
let top_bit w =
  let r = ref 0 and w = ref w in
  if !w lsr 32 <> 0 then begin r := !r + 32; w := !w lsr 32 end;
  if !w lsr 16 <> 0 then begin r := !r + 16; w := !w lsr 16 end;
  if !w lsr 8 <> 0 then begin r := !r + 8; w := !w lsr 8 end;
  if !w lsr 4 <> 0 then begin r := !r + 4; w := !w lsr 4 end;
  if !w lsr 2 <> 0 then begin r := !r + 2; w := !w lsr 2 end;
  if !w lsr 1 <> 0 then incr r;
  !r

(* Highest set bit of [col], scanning no higher than word [hint] (the
   caller guarantees all words above [hint] are zero).  Returns -1 on the
   zero column. *)
let low_from col hint =
  let i = ref hint in
  while !i >= 0 && col.(!i) = 0 do decr i done;
  if !i < 0 then -1 else (!i * bits) + top_bit col.(!i)

type reducer = {
  rows : int;
  work : int array;  (* the column being pushed and reduced *)
  mutable top : int;  (* highest row pushed into [work], -1 if none *)
  offset : int array;  (* where row r's pivot starts; -1 while it has none *)
  store : int array;
      (* the pivot whose low is row r is zero above word r / bits, so
         only its words 0 .. r / bits are kept, one pivot after another *)
  mutable free : int;  (* the store's first unused word *)
  lows : Bytes.t option;
  mutable rank : int;
}

(* The pivots have distinct lows, so they take at most the words of one
   pivot per row, [slot rows], and at most [cols] columns' words. *)
let reducer ?lows ~rows ~cols () =
  let words = words_for rows in
  let slot_rows =
    let w = rows / bits in
    (bits * w * (w + 1) / 2) + (rows mod bits * (w + 1))
  in
  {
    rows;
    work = Array.make words 0;
    top = -1;
    offset = Array.make rows (-1);
    store = Array.make (min slot_rows (cols * words)) 0;
    free = 0;
    lows;
    rank = 0;
  }

let push t row =
  if row < 0 || row >= t.rows then invalid_arg "Bitmat.push: row out of range";
  let w = row / bits in
  t.work.(w) <- t.work.(w) lor (1 lsl (row mod bits));
  if row > t.top then t.top <- row

(* Either way [work] ends zero, ready for the next column.  A loop, not
   a local recursive function, so no closure is allocated per column. *)
let reduce t =
  let work = t.work and store = t.store in
  let low = ref (if t.top < 0 then -1 else low_from work (t.top / bits)) in
  while !low >= 0 do
    let l = !low in
    let w = l / bits in
    let s = Array.unsafe_get t.offset l in
    if s >= 0 then begin
      (* the pivot's words stop at w, so the XOR does too *)
      for i = 0 to w do
        Array.unsafe_set work i
          (Array.unsafe_get work i lxor Array.unsafe_get store (s + i))
      done;
      low := low_from work w
    end
    else begin
      let s = t.free in
      t.offset.(l) <- s;
      t.free <- s + w + 1;
      Array.blit work 0 store s (w + 1);
      Array.fill work 0 (w + 1) 0;
      (match t.lows with Some b -> Bytes.set b l '\001' | None -> ());
      t.rank <- t.rank + 1;
      low := -1
    end
  done;
  t.top <- -1

let rank t = t.rank

let rank_of_columns ~rows cols =
  let t = reducer ~rows ~cols:(List.length cols) () in
  List.iter
    (fun col ->
      List.iter (push t) col;
      reduce t)
    cols;
  rank t

(* Single-word fast path: when the matrix has at most [bits] rows each
   column is one int mask, the pivot table stores reduced masks directly
   (0 = no pivot yet: a zero mask never owns a pivot), and the whole
   reduction runs on registers. *)
let rank_words ?lows ~rows cols =
  if rows > bits then invalid_arg "Bitmat.rank_words: too many rows";
  let pivot = Array.make (max rows 1) 0 in
  let rank = ref 0 in
  let rec reduce m =
    if m <> 0 then begin
      let l = top_bit m in
      let p = Array.unsafe_get pivot l in
      if p = 0 then begin
        Array.unsafe_set pivot l m;
        (match lows with Some b -> Bytes.set b l '\001' | None -> ());
        incr rank
      end
      else reduce (m lxor p)
    end
  in
  Array.iter reduce cols;
  !rank
