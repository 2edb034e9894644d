(* Dense bit-packed Z/2 matrices.  A column is an [int array] of
   [Sys.int_size]-bit words; word [w] bit [b] encodes row [w * bits + b].
   Rank uses the low-based column reduction of persistent homology, with
   word-level XOR and an O(1) pivot table indexed by row. *)

let bits = Sys.int_size

type t = { rows : int; cols : int array array }

let words_for rows = (rows + bits - 1) / bits

let create ~rows ~cols =
  { rows; cols = Array.init cols (fun _ -> Array.make (words_for rows) 0) }

let dims t = (t.rows, Array.length t.cols)

let set t ~row ~col =
  if row < 0 || row >= t.rows then invalid_arg "Bitmat.set: row out of range";
  let c = t.cols.(col) in
  c.(row / bits) <- c.(row / bits) lor (1 lsl (row mod bits))

let get t ~row ~col = t.cols.(col).(row / bits) land (1 lsl (row mod bits)) <> 0

let of_columns ~rows cols =
  let t = create ~rows ~cols:(List.length cols) in
  List.iteri (fun j col -> List.iter (fun row -> set t ~row ~col:j) col) cols;
  t

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

(* Reduces [t]'s own columns: no copy, so a matrix built only to be
   ranked costs its columns once. *)
let rank ?lows t =
  let nwords = words_for t.rows in
  (* pivot.(r) = index of the column whose low is row r, or -1 *)
  let pivot = Array.make (max t.rows 1) (-1) in
  let cols = t.cols in
  let rank = ref 0 in
  Array.iteri
    (fun j col ->
      let hint = ref (nwords - 1) in
      let rec reduce () =
        let l = low_from col !hint in
        if l >= 0 then begin
          hint := l / bits;
          match pivot.(l) with
          | -1 ->
              pivot.(l) <- j;
              (match lows with Some b -> Bytes.set b l '\001' | None -> ());
              incr rank
          | p ->
              (* the pivot column's low is also l, so it is zero above
                 word l/bits and the XOR can stop there *)
              let other = cols.(p) in
              for w = 0 to !hint do
                col.(w) <- col.(w) lxor other.(w)
              done;
              reduce ()
        end
      in
      reduce ())
    cols;
  !rank

let rank_of_columns ~rows cols = rank (of_columns ~rows cols)

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
