(* Oracle tests for the fast homology engine: the bit-packed Bitmat rank
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
    Alcotest.test_case "set/get round-trip across word boundaries" `Quick (fun () ->
        let m = Bitmat.create ~rows:130 ~cols:2 in
        List.iter (fun r -> Bitmat.set m ~row:r ~col:0) [ 0; 62; 63; 64; 126; 129 ];
        List.iter
          (fun r ->
            Alcotest.(check bool)
              (Printf.sprintf "bit %d" r)
              true
              (Bitmat.get m ~row:r ~col:0))
          [ 0; 62; 63; 64; 126; 129 ];
        Alcotest.(check bool) "unset" false (Bitmat.get m ~row:1 ~col:0);
        Alcotest.(check bool) "other col" false (Bitmat.get m ~row:63 ~col:1));
    Alcotest.test_case "rank reduces its argument in place" `Quick (fun () ->
        (* three words of columns whose lows share three rows: reduction
           rewrites all but three of them, in the matrix itself *)
        let rows = 190 in
        let cols = List.init 100 (fun i -> [ i; i + 30; 150 + (i mod 3) ]) in
        let m = Bitmat.of_columns ~rows cols in
        let entries m =
          List.init 100 (fun col ->
              List.filter (fun row -> Bitmat.get m ~row ~col) (List.init rows Fun.id))
        in
        Alcotest.(check int) "rank" (Z2_matrix.rank cols) (Bitmat.rank m);
        Alcotest.(check (list (list int))) "reduced" (Z2_matrix.reduce cols) (entries m));
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

let wide_key_tests =
  [
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

let suites =
  [
    ("bitmat.unit", unit_tests);
    ("bitmat.wide_keys", wide_key_tests);
    ("bitmat.matrix_oracle", matrix_props);
    ("bitmat.psph_oracle", psph_props);
    ("bitmat.clearing_trace", clearing_trace_tests);
  ]
