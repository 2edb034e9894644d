open Psph_obs

module SMap = Simplex_sets.SMap

(* Reference (slow-path) index and boundary-matrix construction, kept for
   the public [boundary_matrix] API and as the oracle the fast engine is
   tested against. *)
let index_of_dim c d =
  List.sort Simplex.compare (Complex.simplices_of_dim c d)
  |> List.mapi (fun i s -> (s, i))
  |> List.to_seq |> SMap.of_seq

let boundary_matrix c d =
  if d <= 0 then
    (* d = 0: the augmentation map handles this case in [ranks] *)
    invalid_arg "Homology.boundary_matrix: dimension must be >= 1"
  else
    let rows = index_of_dim c (d - 1) in
    let cols = List.sort Simplex.compare (Complex.simplices_of_dim c d) in
    List.map
      (fun s ->
        Simplex.facets s
        |> List.map (fun f -> SMap.find f rows)
        |> List.sort Int.compare)
      cols

(* ranks.(d) = rank of the boundary operator from d-chains to (d-1)-chains,
   where the operator at d = 0 is the augmentation (so its rank is 1 on any
   nonempty complex).

   Fast path: one traversal of the complex buckets the interned vertex-id
   key of every simplex by dimension; each boundary matrix is then built
   with an int-array-keyed Hashtbl row index (no Simplex.compare on the hot
   path) and eliminated by the bit-packed {!Bitmat} engine.  Row order
   within a dimension is arbitrary but fixed, which is all rank needs.

   [rank_jobs] exposes the per-dimension eliminations as independent
   thunks: the bucketing pass (which interns, hence locks) happens once in
   the calling domain, and each returned closure reads only its own
   dimension's immutable key lists — safe to run on any domain.  The query
   engine schedules these on its worker pool for large complexes; [ranks]
   just runs them in order. *)
let rank_jobs ?max_dim c =
  let dim = Complex.dim c in
  let top = match max_dim with None -> dim | Some m -> min m dim in
  if dim < 0 then ([||], [])
  else begin
    (* rank of boundary_{top+1} is needed for betti at top *)
    let upper = min (top + 1) dim in
    let r = Array.make (upper + 1) 0 in
    r.(0) <- (if Complex.is_empty c then 0 else 1);
    if upper < 1 then (r, [])
    else begin
      let keys = Array.make (upper + 1) [] in
      let max_id = ref 0 in
      Complex.iter
        (fun s ->
          let d = Simplex.dim s in
          if d <= upper then begin
            let k = Intern.key s in
            Array.iter (fun i -> if i > !max_id then max_id := i) k;
            keys.(d) <- k :: keys.(d)
          end)
        c;
      (* bits needed to hold any vertex id *)
      let id_bits =
        let rec loop b = if !max_id lsr b = 0 then b else loop (b + 1) in
        max 1 (loop 1)
      in
      let rank_of_dim d =
        let cols = keys.(d) in
        let ncols = List.length cols in
        if d * id_bits <= Sys.int_size - 1 then begin
          (* a whole (d-1)-simplex key fits in one int: pack ids into
             bit-fields, sort the packed row keys once, and resolve each
             facet with a binary search — the row number is just the key's
             position in sorted order *)
          let pack_skip a skip =
            let n = Array.length a in
            let rec go i acc =
              if i >= n then acc
              else if i = skip then go (i + 1) acc
              else go (i + 1) ((acc lsl id_bits) lor Array.unsafe_get a i)
            in
            go 0 0
          in
          let rows =
            Array.of_list (List.map (fun k -> pack_skip k (-1)) keys.(d - 1))
          in
          let nrows = Array.length rows in
          (* small arrays: insertion sort avoids compare-closure calls *)
          if nrows <= 64 then
            for i = 1 to nrows - 1 do
              let x = rows.(i) in
              let j = ref (i - 1) in
              while !j >= 0 && rows.(!j) > x do
                rows.(!j + 1) <- rows.(!j);
                decr j
              done;
              rows.(!j + 1) <- x
            done
          else Array.sort Int.compare rows;
          let find key =
            let lo = ref 0 and hi = ref nrows in
            while !hi - !lo > 1 do
              let mid = (!lo + !hi) / 2 in
              if Array.unsafe_get rows mid <= key then lo := mid else hi := mid
            done;
            !lo
          in
          if nrows <= Sys.int_size then begin
            (* columns fit in single words: build int masks directly *)
            let masks = Array.make ncols 0 in
            List.iteri
              (fun j a ->
                let m = ref 0 in
                for i = 0 to Array.length a - 1 do
                  m := !m lor (1 lsl find (pack_skip a i))
                done;
                masks.(j) <- !m)
              cols;
            Bitmat.rank_words ~rows:nrows masks
          end
          else begin
            let mat = Bitmat.create ~rows:nrows ~cols:ncols in
            List.iteri
              (fun j a ->
                for i = 0 to Array.length a - 1 do
                  Bitmat.set mat ~row:(find (pack_skip a i)) ~col:j
                done)
              cols;
            Bitmat.rank mat
          end
        end
        else begin
          (* fallback: int-array keys (canonical, safe for structural
             hashing since entries are immediate ints) *)
          let row_index : (int array, int) Hashtbl.t = Hashtbl.create (4 * ncols) in
          let nrows = ref 0 in
          List.iter
            (fun k ->
              Hashtbl.replace row_index k !nrows;
              incr nrows)
            keys.(d - 1);
          let mat = Bitmat.create ~rows:!nrows ~cols:ncols in
          List.iteri
            (fun j a ->
              let n = Array.length a in
              for i = 0 to n - 1 do
                let f = Array.make (n - 1) 0 in
                Array.blit a 0 f 0 i;
                Array.blit a (i + 1) f i (n - 1 - i);
                Bitmat.set mat ~row:(Hashtbl.find row_index f) ~col:j
              done)
            cols;
          Bitmat.rank mat
        end
      in
      ( r,
        List.init upper (fun i ->
            let d = i + 1 in
            ( d,
              fun () ->
                (* each elimination is a [homology.rank] span so traces
                   show where a query's compute time went, per dimension *)
                Obs.with_span "homology.rank"
                  ~attrs:[ ("dim", Jsonl.int d) ]
                  (fun _ -> rank_of_dim d) )) )
    end
  end

let ranks ?max_dim c =
  let r, jobs = rank_jobs ?max_dim c in
  List.iter (fun (d, job) -> r.(d) <- job ()) jobs;
  r

let reduced_betti ?max_dim c =
  let dim = Complex.dim c in
  let top = match max_dim with None -> dim | Some m -> min m dim in
  if dim < 0 then [||]
  else begin
    let r = ranks ?max_dim c in
    let betti = Array.make (top + 1) 0 in
    for d = 0 to top do
      let chains = Complex.count_of_dim c d in
      let rank_d = r.(d) in
      let rank_above = if d + 1 <= Complex.dim c then r.(d + 1) else 0 in
      betti.(d) <- chains - rank_d - rank_above
    done;
    betti
  end

let betti ?max_dim c =
  let b = reduced_betti ?max_dim c in
  if Array.length b > 0 then b.(0) <- b.(0) + 1;
  b

let is_k_connected c k =
  if k <= -2 then true
  else if Complex.is_empty c then false
  else if k = -1 then true
  else begin
    let b = reduced_betti ~max_dim:k c in
    let ok = ref true in
    for d = 0 to min k (Array.length b - 1) do
      if b.(d) <> 0 then ok := false
    done;
    !ok
  end

let connectivity ?cap c =
  if Complex.is_empty c then -2
  else begin
    let cap = match cap with None -> Complex.dim c | Some k -> k in
    let b = reduced_betti ~max_dim:cap c in
    let rec loop k =
      if k > cap then cap
      else if k <= Array.length b - 1 && b.(k) <> 0 then k - 1
      else loop (k + 1)
    in
    loop 0
  end

let euler_from_betti c =
  let b = betti c in
  let acc = ref 0 in
  Array.iteri (fun d n -> acc := !acc + if d mod 2 = 0 then n else -n) b;
  !acc
