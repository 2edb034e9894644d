open Psph_obs

(* ranks.(d) = rank of the boundary operator from d-chains to (d-1)-chains,
   where the operator at d = 0 is the augmentation (so its rank is 1 on any
   nonempty complex).

   Fast path: one {!Simplex_index} of the complex numbers every simplex
   within its dimension, so each boundary column is built from int keys
   (no Simplex.compare on the hot path) and eliminated by the bit-packed
   {!Bitmat} engine: single-word columns as an array of masks, wider ones
   streamed through a {!Bitmat.reducer}, which keeps only the pivots.

   Clearing (the "twist" of Chen and Kerber, "Persistent homology
   computation with a twist", 2011): the jobs are listed top-down.  Once
   the job for d has reduced boundary_d, every (d-1)-simplex that is the
   lowest row of a reduced column is positive: that column is a cycle
   whose highest simplex it is, so the simplex's own column in
   boundary_{d-1} is a sum of earlier columns and reduces to zero.  The
   job for d - 1 builds only the other columns, and the rank is the same.
   A job finds its upper neighbour's pivot rows through an [Atomic] that
   neighbour sets when it is done; a job run before it (or beside it, on
   another domain) reduces every column, so any order gives the same
   ranks.

   [of_index] needs no complex at all, only a complete index (the engine
   builds one straight from a model and keys through it). *)

(* the jobs for dimensions [upper] down to 1 over [idx]; [idx ()] is
   asked only when there is a job *)
let jobs_upto upper idx =
  let r = Array.make (upper + 1) 0 in
  r.(0) <- 1;
  if upper < 1 then (r, [])
  else begin
    let idx = idx () in
    (* positive.(e): how many e-simplices the job for e + 1 found
       positive, and which (a byte per row), once that job has run *)
    let positive = Array.init upper (fun _ -> Atomic.make None) in
    let rank_of_dim sp d =
      let keys = Simplex_index.keys idx d in
      let nrows = Array.length (Simplex_index.keys idx (d - 1)) in
      let skip = if d < upper then Atomic.get positive.(d) else None in
      let cleared = match skip with None -> 0 | Some (n, _) -> n in
      let columns = Array.length keys - cleared in
      (* [f j k] for each column built: [j] its column, [k] its key *)
      let iter_built f =
        match skip with
        | None -> Array.iteri f keys
        | Some (_, pos) ->
            let j = ref 0 in
            Array.iteri
              (fun row k ->
                if Bytes.get pos row = '\000' then begin
                  f !j k;
                  incr j
                end)
              keys
      in
      (* the rows below have a job of their own only from d = 2 *)
      let lows = if d >= 2 then Some (Bytes.make nrows '\000') else None in
      let rank =
        if nrows <= Sys.int_size then begin
          (* columns fit in single words: build int masks directly *)
          let masks = Array.make columns 0 in
          iter_built (fun j k ->
              let m = ref 0 in
              for i = 0 to d do
                m := !m lor (1 lsl Simplex_index.face_row idx k i)
              done;
              masks.(j) <- !m);
          Bitmat.rank_words ?lows ~rows:nrows masks
        end
        else begin
          (* one column at a time: only the pivots are kept *)
          let red = Bitmat.reducer ?lows ~rows:nrows ~cols:columns () in
          iter_built (fun _ k ->
              for i = 0 to d do
                Bitmat.push red (Simplex_index.face_row idx k i)
              done;
              Bitmat.reduce red);
          Bitmat.rank red
        end
      in
      Option.iter (fun pos -> Atomic.set positive.(d - 1) (Some (rank, pos))) lows;
      if Obs.current_sink () <> Obs.Null then begin
        Obs.set_attr sp "columns" (Jsonl.int columns);
        Obs.set_attr sp "cleared" (Jsonl.int cleared)
      end;
      rank
    in
    ( r,
      List.init upper (fun i ->
          let d = upper - i in
          ( d,
            fun () ->
              (* each elimination is a [homology.rank] span so traces
                 show where a query's compute time went, per dimension *)
              Obs.with_span "homology.rank"
                ~attrs:[ ("dim", Jsonl.int d) ]
                (fun sp -> rank_of_dim sp d) )) )
  end

let rank_jobs ?max_dim c =
  let dim = Complex.dim c in
  let top = match max_dim with None -> dim | Some m -> min m dim in
  if dim < 0 then ([||], [])
  else begin
    (* rank of boundary_{top+1} is needed for betti at top *)
    let upper = min (top + 1) dim in
    jobs_upto upper (fun () -> Simplex_index.create ~max_dim:upper c)
  end

let ranks ?max_dim c =
  let r, jobs = rank_jobs ?max_dim c in
  List.iter (fun (d, job) -> r.(d) <- job ()) jobs;
  r

(* the one Betti-to-connectivity rule: one less than the first dimension
   with nonzero reduced homology, [top] when every listed one vanishes *)
let connectivity_of_reduced ~top reduced =
  let rec conn k =
    if k >= Array.length reduced then top
    else if reduced.(k) <> 0 then k - 1
    else conn (k + 1)
  in
  conn 0

let reduced_of ~top ~dim ~count r =
  if dim < 0 then ([||], -2)
  else begin
    let reduced =
      Array.init (min top dim + 1) (fun d ->
          count d - r.(d) - if d + 1 <= dim then r.(d + 1) else 0)
    in
    (reduced, connectivity_of_reduced ~top reduced)
  end

let of_ranks ~top c r =
  reduced_of ~top ~dim:(Complex.dim c) ~count:(Complex.count_of_dim c) r

let of_index idx =
  if not (Simplex_index.complete idx) then
    invalid_arg "Homology.of_index: the index omits dimensions";
  let dim = Simplex_index.dim idx in
  let r, jobs = if dim < 0 then ([||], []) else jobs_upto dim (fun () -> idx) in
  List.iter (fun (d, job) -> r.(d) <- job ()) jobs;
  reduced_of ~top:dim ~dim ~count:(Simplex_index.count idx) r

let connectivity_of_betti betti =
  let dim = Array.length betti - 1 in
  if dim < 0 then -2
  else
    connectivity_of_reduced ~top:dim
      (Array.mapi (fun d b -> if d = 0 then b - 1 else b) betti)

let reduced_betti ?max_dim c =
  let top = Option.value max_dim ~default:(Complex.dim c) in
  fst (of_ranks ~top c (ranks ?max_dim c))

let betti ?max_dim c =
  let b = reduced_betti ?max_dim c in
  if Array.length b > 0 then b.(0) <- b.(0) + 1;
  b

let connectivity ?cap c =
  let cap = Option.value cap ~default:(Complex.dim c) in
  snd (of_ranks ~top:cap c (ranks ~max_dim:cap c))

let is_k_connected c k = k <= -2 || connectivity ~cap:k c >= k

let euler_from_betti c =
  let b = betti c in
  let acc = ref 0 in
  Array.iteri (fun d n -> acc := !acc + if d mod 2 = 0 then n else -n) b;
  !acc
