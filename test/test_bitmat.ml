(* Oracle tests for the fast homology engine: the bit-packed Bitmat ranks
   must agree with the list-based Z2_matrix reference on random sparse
   matrices, and Homology's Simplex_index/Bitmat Betti pipeline must agree
   with the rank formula computed through the reference oracle on random
   pseudospheres and on a complex wide enough to leave the packed-key
   path. *)

open Psph_topology
open Pseudosphere

(* ------------------------------------------------------------------ *)
(* unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    Alcotest.test_case "rank of empty matrix" `Quick (fun () ->
        Alcotest.(check int) "rank" 0 (Bitmat.rank_of_columns ~rows:0 []);
        Alcotest.(check int) "rank" 0 (Bitmat.rank_of_columns ~rows:5 []));
    Alcotest.test_case "rank of zero columns" `Quick (fun () ->
        Alcotest.(check int) "rank" 0 (Bitmat.rank_of_columns ~rows:5 [ []; []; [] ]));
    Alcotest.test_case "rank of identity" `Quick (fun () ->
        Alcotest.(check int)
          "rank" 4
          (Bitmat.rank_of_columns ~rows:4 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]));
    Alcotest.test_case "dependent columns collapse" `Quick (fun () ->
        (* third column is the sum of the first two *)
        Alcotest.(check int)
          "rank" 2
          (Bitmat.rank_of_columns ~rows:3 [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]));
    Alcotest.test_case "multi-word rank equals reference" `Quick (fun () ->
        (* a shifted staircase spanning three words *)
        let cols = List.init 100 (fun i -> [ i; i + 30; i + 90 ]) in
        Alcotest.(check int)
          "rank"
          (Z2_matrix.rank cols)
          (Bitmat.rank_of_columns ~rows:190 cols));
  ]

(* ------------------------------------------------------------------ *)
(* random-matrix oracle: Bitmat.rank = Z2_matrix.rank                  *)
(* ------------------------------------------------------------------ *)

(* a sparse column over [rows] rows: a strictly increasing index list *)
let gen_matrix ~max_rows =
  QCheck2.Gen.(
    int_range 1 max_rows >>= fun rows ->
    let col =
      list_size (int_range 0 (min rows 8)) (int_range 0 (rows - 1))
      |> map (List.sort_uniq Int.compare)
    in
    list_size (int_range 0 12) col |> map (fun cols -> (rows, cols)))

let masks_of_columns ~rows cols =
  ignore rows;
  Array.of_list
    (List.map (List.fold_left (fun m r -> m lor (1 lsl r)) 0) cols)

(* a matrix whose height and entries sit at the word edges (a word holds
   [Sys.int_size] = 63 rows), with empty and all-zero columns among the
   rest: each column is empty or a few rows, half of them drawn from the
   edge rows that fit *)
let gen_edge_matrix =
  QCheck2.Gen.(
    oneofl [ 62; 63; 64; 65; 126; 127; 128; 190 ] >>= fun rows ->
    let edges =
      List.filter (fun r -> r < rows) [ 0; 61; 62; 63; 64; 65; 125; 126; 127; 128; 189 ]
    in
    let row = oneof [ int_range 0 (rows - 1); oneofl edges ] in
    let col =
      oneof [ return []; list_size (int_range 1 6) row ]
      |> map (List.sort_uniq Int.compare)
    in
    list_size (int_range 0 16) col |> map (fun cols -> (rows, cols)))

(* the lowest rows of the reference's reduced columns: its pivot rows *)
let reference_lows cols = List.filter_map Z2_matrix.low (Z2_matrix.reduce cols)

(* rank and marked rows through a reducer fed column by column, sized
   for [room] columns *)
let reducer_run ~room ~rows cols =
  let lows = Bytes.make rows '\000' in
  let t = Bitmat.reducer ~lows ~rows ~cols:room () in
  List.iter
    (fun col ->
      List.iter (Bitmat.push t) col;
      Bitmat.reduce t)
    cols;
  ( Bitmat.rank t,
    List.filter (fun r -> Bytes.get lows r = '\001') (List.init rows Fun.id) )

let matrix_props =
  let open QCheck2 in
  [
    Test.make ~count:300 ~name:"Bitmat.rank = Z2_matrix.rank (single word)"
      (gen_matrix ~max_rows:60)
      (fun (rows, cols) ->
        Bitmat.rank_of_columns ~rows cols = Z2_matrix.rank cols);
    Test.make ~count:200 ~name:"Bitmat.rank = Z2_matrix.rank (multi word)"
      (gen_matrix ~max_rows:200)
      (fun (rows, cols) ->
        Bitmat.rank_of_columns ~rows cols = Z2_matrix.rank cols);
    Test.make ~count:300
      ~name:"the reducer's rank and lows = Z2_matrix's rank and pivot rows"
      gen_edge_matrix
      (fun (rows, cols) ->
        let expect = (Z2_matrix.rank cols, List.sort Int.compare (reference_lows cols)) in
        (* room for as many columns as rows: the store is bounded by
           one pivot per row; room for just these (at most 16): by the
           columns' own words *)
        reducer_run ~room:rows ~rows cols = expect
        && reducer_run ~room:(List.length cols) ~rows cols = expect);
    Test.make ~count:300 ~name:"Bitmat.rank_words = Z2_matrix.rank"
      (gen_matrix ~max_rows:60)
      (fun (rows, cols) ->
        Bitmat.rank_words ~rows (masks_of_columns ~rows cols)
        = Z2_matrix.rank cols);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* random-pseudosphere oracle: new engine = reference rank formula     *)
(* ------------------------------------------------------------------ *)

(* reduced Betti numbers computed through the list-based Z2_matrix
   boundary matrices and elimination — the pre-Bitmat engine *)
let oracle_reduced_betti c =
  let dim = Complex.dim c in
  if dim < 0 then [||]
  else begin
    let r = Array.make (dim + 2) 0 in
    r.(0) <- (if Complex.is_empty c then 0 else 1);
    for d = 1 to dim do
      r.(d) <- Z2_matrix.rank (Z2_matrix.boundary_matrix c d)
    done;
    Array.init (dim + 1) (fun d ->
        Complex.count_of_dim c d - r.(d) - r.(d + 1))
  end

(* psi(P^n; U) with independently chosen nonempty value sets per process,
   n <= 3, each drawn as up to [max_values] values out of 0..3 *)
let gen_psph_upto ~max_values =
  QCheck2.Gen.(
    int_range 0 3 >>= fun n ->
    let values = list_size (int_range 1 max_values) (int_range 0 3) in
    list_repeat (n + 1) values
    |> map (fun vss ->
           let vss = Array.of_list vss in
           Psph.create
             ~base:(Simplex.proc_simplex n)
             ~values:(fun p -> List.map (fun v -> Label.Int v) vss.(Pid.to_int p))))

let gen_psph = gen_psph_upto ~max_values:3

(* boundary ranks through the reference oracle, r.(0) the augmentation *)
let oracle_ranks c =
  Array.init (Complex.dim c + 1) (fun d ->
      if d = 0 then 1 else Z2_matrix.rank (Z2_matrix.boundary_matrix c d))

(* [Homology.rank_jobs c], its jobs run in [order jobs]; false unless
   the jobs are listed top-down *)
let ranks_run order c =
  let r, jobs = Homology.rank_jobs c in
  let dims = List.map fst jobs in
  List.iter (fun (d, job) -> r.(d) <- job ()) (order jobs);
  (dims = List.rev (List.sort Int.compare dims), r)

let clearing_agrees c =
  let oracle = oracle_ranks c in
  ranks_run Fun.id c = (true, oracle) && ranks_run List.rev c = (true, oracle)

let psph_props =
  let open QCheck2 in
  [
    Test.make ~count:120 ~name:"Homology.betti unchanged on random psi(P^n;U)"
      gen_psph
      (fun ps ->
        let c = Psph.realize ~vertex:Psph.default_vertex ps in
        Homology.reduced_betti c = oracle_reduced_betti c);
    (* up to four values per process: boundary_2 can have 96 rows, so
       clearing also skips columns of multi-word matrices *)
    Test.make ~count:100
      ~name:"rank_jobs in list and reversed order = Z2_matrix ranks"
      (gen_psph_upto ~max_values:4)
      (fun ps -> clearing_agrees (Psph.realize ~vertex:Psph.default_vertex ps));
    Test.make ~count:120 ~name:"realize closure matches of_facets closure"
      gen_psph
      (fun ps ->
        (* the product-closure fast path must produce exactly the closure
           of the facet list *)
        let c = Psph.realize ~vertex:Psph.default_vertex ps in
        Complex.equal c (Complex.of_facets (Complex.facets c)));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* One 7-simplex plus 1017 isolated vertices: 1025 vertices need 11-bit
   ids, so keys of 5 or more vertices no longer pack into a word.  The
   ranks of boundary_6 and boundary_7 then look rows up through the
   Hashtbl fallback while boundary_1..5 pack — decided by the complex
   alone, whatever else the process computed first. *)
let wide_complex () =
  Complex.of_facets
    (Simplex.of_list (List.init 8 Vertex.anon)
    :: List.init 1017 (fun i -> Simplex.of_list [ Vertex.anon (8 + i) ]))

(* a vertex table fed the facets in the given order, each interned
   vertex by vertex *)
let table_of facets =
  let t = Vertex_table.create () in
  List.iter
    (fun f ->
      Vertex_table.add_facet t (Array.map (Vertex_table.intern t) (Simplex.vertex_array f)))
    facets;
  t

(* 6-simplexes over about 350 vertices: while building, a 6-face packs
   8 bits per id, so faces holding an id of 256 or more take the
   int-array fallback; the index numbers ids in 9 bits, 7 of which no
   longer fit one word *)
let random_wide_complex () =
  let rng = Random.State.make [| 7 |] in
  Complex.of_facets
    (List.init 120 (fun _ ->
         Simplex.of_list (List.init 7 (fun _ -> Vertex.anon (Random.State.int rng 400)))))

let table_indexes_like_create name c facets =
  let t = table_of facets in
  Index_check.same name (Vertex_table.index t) (Simplex_index.create c);
  Alcotest.(check bool) (name ^ ": same complex") true
    (Complex.equal (Vertex_table.complex t) c)

let wide_key_tests =
  [
    Alcotest.test_case "a vertex table indexes wide faces like create" `Quick
      (fun () ->
        let c = random_wide_complex () in
        Alcotest.(check bool) "over 256 vertices" true (Complex.num_vertices c > 256);
        table_indexes_like_create "random 6-simplexes" c (Complex.facets c);
        (* the 8-simplex interned first, then last: its ids fit 7 bits
           while building, then need 11 *)
        let w = wide_complex () in
        table_indexes_like_create "8-simplex first" w (Complex.facets w);
        table_indexes_like_create "8-simplex last" w (List.rev (Complex.facets w)));
    Alcotest.test_case "wide keys take the Hashtbl rows, same Betti" `Quick
      (fun () ->
        let c = wide_complex () in
        Alcotest.(check int) "vertices" 1025 (Complex.num_vertices c);
        let idx = Simplex_index.create c in
        Alcotest.(check (list bool))
          "rows packed through dim 4, hashed in dims 5 and 6"
          [ true; true; true; true; true; false; false ]
          (List.init 7 (Simplex_index.packed idx));
        let expect = Array.init 8 (fun d -> if d = 0 then 1017 else 0) in
        Alcotest.(check (array int)) "reduced betti" expect (Homology.reduced_betti c);
        Alcotest.(check (array int)) "oracle" expect (oracle_reduced_betti c);
        Alcotest.(check (array int)) "integral" expect
          (Array.map
             (fun (g : Homology_z.group) -> g.rank)
             (Homology_z.reduced_homology c));
        Alcotest.(check bool) "torsion-free" true (Homology_z.is_torsion_free c));
    Alcotest.test_case "rank_jobs in list and reversed order = Z2_matrix ranks"
      `Quick (fun () ->
        Alcotest.(check bool) "agrees" true (clearing_agrees (wide_complex ())));
  ]

(* ------------------------------------------------------------------ *)
(* clearing, as the [homology.rank] spans report it                    *)
(* ------------------------------------------------------------------ *)

module Obs = Psph_obs.Obs
module Jsonl = Psph_obs.Jsonl

let clearing_trace_tests =
  [
    Alcotest.test_case "homology.rank spans count the columns clearing skipped"
      `Quick (fun () ->
        (* psi(P^3; {0,1,2}): f-vector 12, 54, 108, 81, so boundary_3 is
           a multi-word matrix and boundary_2 and boundary_1 fit a word *)
        let c =
          Psph.realize ~vertex:Psph.default_vertex
            (Psph.create ~base:(Simplex.proc_simplex 3)
               ~values:(fun _ -> List.map (fun v -> Label.Int v) [ 0; 1; 2 ]))
        in
        let f = Complex.f_vector c in
        Obs.set_sink Obs.Memory;
        Obs.clear_records ();
        let spans =
          Fun.protect
            ~finally:(fun () ->
              Obs.set_sink Obs.Null;
              Obs.clear_records ())
            (fun () ->
              ignore (Homology.reduced_betti c);
              List.filter_map
                (function
                  | Obs.Span_record { name = "homology.rank"; attrs; _ } ->
                      let int k =
                        match List.assoc_opt k attrs with
                        | Some (Jsonl.Num x) -> int_of_float x
                        | _ -> Alcotest.fail ("no int attr " ^ k)
                      in
                      Some (int "dim", (int "columns", int "cleared"))
                  | _ -> None)
                (Obs.records ()))
        in
        Alcotest.(check (list int)) "one span per dimension, top-down" [ 3; 2; 1 ]
          (List.map fst spans);
        List.iter
          (fun (d, (columns, cleared)) ->
            let at = Printf.sprintf "dim %d" d in
            Alcotest.(check int) (at ^ ": columns + cleared") f.(d) (columns + cleared);
            Alcotest.(check bool) (at ^ ": cleared > 0 below the top") (d < 3)
              (cleared > 0))
          spans);
  ]

(* ------------------------------------------------------------------ *)
(* what a served miss's elimination allocates                          *)
(* ------------------------------------------------------------------ *)

let allocation_tests =
  [
    Alcotest.test_case "of_index allocates no young column (async n=2 f=2 r=2)"
      `Quick (fun () ->
        (* 6,892 simplexes, most of whose boundary matrices span several
           words: the reducers' pivot stores are large, so they go straight
           to the major heap, and nothing is allocated per column *)
        let m = Model_complex.get "async" in
        let (module M : Model_complex.MODEL) = m in
        let spec =
          match M.validate { Model_complex.default_spec with n = 2; f = 2; r = 2 } with
          | Ok spec -> spec
          | Error e -> Alcotest.fail e
        in
        let idx = Model_complex.rounds_index m spec (Solver.standard_input 2) in
        Alcotest.(check int) "simplexes" 6892
          (List.fold_left ( + ) 0
             (List.init (Simplex_index.dim idx + 1) (Simplex_index.count idx)));
        let expect = Homology.of_index idx in
        let before = Gc.minor_words () in
        let got = Homology.of_index idx in
        let minor = Gc.minor_words () -. before in
        Alcotest.(check bool) "same answer" true (got = expect);
        if minor > 2000. then
          Alcotest.failf "of_index allocated %.0f minor words (at most 2000)" minor);
  ]

let suites =
  [
    ("bitmat.unit", unit_tests);
    ("bitmat.allocation", allocation_tests);
    ("bitmat.wide_keys", wide_key_tests);
    ("bitmat.matrix_oracle", matrix_props);
    ("bitmat.psph_oracle", psph_props);
    ("bitmat.clearing_trace", clearing_trace_tests);
  ]
