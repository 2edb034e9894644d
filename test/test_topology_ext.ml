(* Tests for the extended topology substrate: integral homology (Smith
   normal form), cones/suspensions, shellability, and the memory behaviour
   of per-complex simplex indexing. *)

open Psph_topology

let v = Vertex.anon

let sx l = Simplex.of_list (List.map v l)

let cx ls = Complex.of_facets (List.map sx ls)

let circle = cx [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]

let torus =
  cx
    (List.concat_map
       (fun i -> [ [ i; (i + 1) mod 7; (i + 3) mod 7 ]; [ i; (i + 2) mod 7; (i + 3) mod 7 ] ])
       [ 0; 1; 2; 3; 4; 5; 6 ])

let rp2 =
  cx
    [ [ 0; 1; 2 ]; [ 0; 2; 3 ]; [ 0; 3; 4 ]; [ 0; 4; 5 ]; [ 0; 1; 5 ];
      [ 1; 2; 4 ]; [ 2; 4; 5 ]; [ 2; 3; 5 ]; [ 1; 3; 5 ]; [ 1; 3; 4 ] ]

let groups_to_strings gs = Array.to_list (Array.map Homology_z.group_to_string gs)

(* ------------------------------------------------------------------ *)
(* Smith normal form                                                   *)
(* ------------------------------------------------------------------ *)

let snf_tests =
  [
    Alcotest.test_case "empty matrix" `Quick (fun () ->
        Alcotest.(check (list int)) "diag" [] (Snf.smith_diagonal [||]);
        Alcotest.(check int) "rank" 0 (Snf.rank [||]));
    Alcotest.test_case "identity" `Quick (fun () ->
        Alcotest.(check (list int)) "diag" [ 1; 1 ]
          (Snf.smith_diagonal [| [| 1; 0 |]; [| 0; 1 |] |]));
    Alcotest.test_case "diag (2,6) normalizes divisibility" `Quick (fun () ->
        (* SNF of diag(2,6) is diag(2,6); of diag(4,6) is diag(2,12) *)
        Alcotest.(check (list int)) "2,6" [ 2; 6 ]
          (Snf.smith_diagonal [| [| 2; 0 |]; [| 0; 6 |] |]);
        Alcotest.(check (list int)) "4,6 -> 2,12" [ 2; 12 ]
          (Snf.smith_diagonal [| [| 4; 0 |]; [| 0; 6 |] |]));
    Alcotest.test_case "rank-deficient" `Quick (fun () ->
        Alcotest.(check int) "rank 1" 1 (Snf.rank [| [| 1; 2 |]; [| 2; 4 |] |]));
    Alcotest.test_case "classic torsion example" `Quick (fun () ->
        (* [[2, 4], [6, 8]]: det = -8, SNF = diag(2, 4) *)
        Alcotest.(check (list int)) "2,4" [ 2; 4 ]
          (Snf.smith_diagonal [| [| 2; 4 |]; [| 6; 8 |] |]));
    Alcotest.test_case "negative entries" `Quick (fun () ->
        Alcotest.(check (list int)) "diag" [ 1 ]
          (Snf.smith_diagonal [| [| -1; 3 |] |]));
    Alcotest.test_case "divisibility invariant on random-ish matrices" `Quick
      (fun () ->
        let samples =
          [ [| [| 3; 1; 2 |]; [| 1; 4; 1 |]; [| 2; 1; 5 |] |];
            [| [| 2; 0; 0 |]; [| 0; 3; 0 |]; [| 0; 0; 5 |] |];
            [| [| 0; 2 |]; [| 3; 0 |] |] ]
        in
        List.iter
          (fun m ->
            let d = Snf.smith_diagonal m in
            let rec chain = function
              | a :: (b :: _ as rest) ->
                  Alcotest.(check int) "divides" 0 (b mod a);
                  chain rest
              | _ -> ()
            in
            chain d;
            List.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0)) d)
          samples);
  ]

(* ------------------------------------------------------------------ *)
(* Integral homology                                                   *)
(* ------------------------------------------------------------------ *)

let homology_z_tests =
  [
    Alcotest.test_case "circle: H = (Z, Z)" `Quick (fun () ->
        Alcotest.(check (list string)) "groups" [ "Z"; "Z" ]
          (groups_to_strings (Homology_z.homology circle)));
    Alcotest.test_case "2-sphere: H = (Z, 0, Z)" `Quick (fun () ->
        Alcotest.(check (list string)) "groups" [ "Z"; "0"; "Z" ]
          (groups_to_strings (Homology_z.homology (Constructions.sphere 2))));
    Alcotest.test_case "torus: H = (Z, Z^2, Z)" `Quick (fun () ->
        Alcotest.(check (list string)) "groups" [ "Z"; "Z^2"; "Z" ]
          (groups_to_strings (Homology_z.homology torus)));
    Alcotest.test_case "projective plane: H_1 = Z/2 (torsion!)" `Quick (fun () ->
        Alcotest.(check (list string)) "groups" [ "Z"; "Z/2"; "0" ]
          (groups_to_strings (Homology_z.homology rp2));
        Alcotest.(check bool) "has torsion" false (Homology_z.is_torsion_free rp2));
    Alcotest.test_case "integral vs Z/2 on torsion-free spaces" `Quick (fun () ->
        List.iter
          (fun c ->
            Alcotest.(check bool) "torsion-free" true (Homology_z.is_torsion_free c);
            Alcotest.(check (list int))
              "betti agree"
              (Array.to_list (Homology.betti c))
              (Array.to_list (Homology_z.betti_z c)))
          [ circle; Constructions.sphere 2; torus; Constructions.solid 3 ]);
    Alcotest.test_case "RP2: Z/2 betti differ from integral betti" `Quick (fun () ->
        Alcotest.(check (list int)) "Z/2" [ 1; 1; 1 ] (Array.to_list (Homology.betti rp2));
        Alcotest.(check (list int)) "Z" [ 1; 0; 0 ] (Array.to_list (Homology_z.betti_z rp2)));
    Alcotest.test_case "reduced homology of a point" `Quick (fun () ->
        Alcotest.(check (list string)) "trivial" [ "0" ]
          (groups_to_strings (Homology_z.reduced_homology (Constructions.solid 0))));
    Alcotest.test_case "group printing" `Quick (fun () ->
        Alcotest.(check string) "mixed" "Z + Z/2"
          (Homology_z.group_to_string { Homology_z.rank = 1; torsion = [ 2 ] });
        Alcotest.(check string) "zero" "0"
          (Homology_z.group_to_string { Homology_z.rank = 0; torsion = [] }));
    Alcotest.test_case "protocol complexes are torsion-free" `Quick (fun () ->
        (* closes the Z/2-vs-topological connectivity gap on real instances *)
        let s =
          Pseudosphere.Input_complex.simplex_of_inputs [ (0, 0); (1, 1); (2, 0) ]
        in
        List.iter
          (fun c -> Alcotest.(check bool) "torsion-free" true (Homology_z.is_torsion_free c))
          [
            Pseudosphere.Async_complex.one_round ~n:2 ~f:1 s;
            Pseudosphere.Sync_complex.one_round ~k:1 s;
            Pseudosphere.Semi_sync_complex.one_round ~k:1 ~p:2 ~n:2 s;
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Cones and suspensions                                               *)
(* ------------------------------------------------------------------ *)

let construction_tests =
  [
    Alcotest.test_case "cone over a circle is contractible" `Quick (fun () ->
        let c = Constructions.cone ~apex:(v 99) circle in
        Alcotest.(check (list int)) "betti" [ 1; 0; 0 ] (Array.to_list (Homology.betti c));
        Alcotest.(check bool) "collapsible" true (Collapse.is_collapsible_to_point c));
    Alcotest.test_case "cone over empty is a point" `Quick (fun () ->
        let c = Constructions.cone ~apex:(v 0) Complex.empty in
        Alcotest.(check int) "one simplex" 1 (Complex.num_simplices c));
    Alcotest.test_case "cone rejects clashing apex" `Quick (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Constructions.cone: apex already occurs in the complex")
          (fun () -> ignore (Constructions.cone ~apex:(v 0) circle)));
    Alcotest.test_case "suspension of a circle is a 2-sphere" `Quick (fun () ->
        let s = Constructions.suspension ~north:(v 90) ~south:(v 91) circle in
        Alcotest.(check (list int)) "betti" [ 1; 0; 1 ] (Array.to_list (Homology.betti s)));
    Alcotest.test_case "suspension shifts reduced homology" `Quick (fun () ->
        List.iter
          (fun c ->
            let s = Constructions.suspension ~north:(v 90) ~south:(v 91) c in
            let rb = Homology.reduced_betti c and rs = Homology.reduced_betti s in
            Array.iteri
              (fun d b ->
                if d + 1 <= Array.length rs - 1 then
                  Alcotest.(check int) (Printf.sprintf "dim %d" d) b rs.(d + 1))
              rb)
          [ circle; Constructions.sphere 0; cx [ [ 0 ]; [ 1 ]; [ 2 ] ] ]);
    Alcotest.test_case "sphere n has the right homology" `Quick (fun () ->
        List.iter
          (fun n ->
            let b = Homology.reduced_betti (Constructions.sphere n) in
            Array.iteri
              (fun d x -> Alcotest.(check int) "reduced" (if d = n then 1 else 0) x)
              b)
          [ 0; 1; 2; 3 ]);
    Alcotest.test_case "sphere (-1) is empty" `Quick (fun () ->
        Alcotest.(check bool) "empty" true (Complex.is_empty (Constructions.sphere (-1))));
  ]

(* ------------------------------------------------------------------ *)
(* Shellability                                                        *)
(* ------------------------------------------------------------------ *)

let shelling_tests =
  [
    Alcotest.test_case "boundary of a simplex is shellable" `Quick (fun () ->
        Alcotest.(check bool) "sphere 1" true (Shelling.is_shellable (Constructions.sphere 1));
        Alcotest.(check bool) "sphere 2" true (Shelling.is_shellable (Constructions.sphere 2)));
    Alcotest.test_case "solid simplices are shellable" `Quick (fun () ->
        Alcotest.(check bool) "solid 3" true (Shelling.is_shellable (Constructions.solid 3)));
    Alcotest.test_case "disjoint edges are not shellable" `Quick (fun () ->
        Alcotest.(check bool) "not" false (Shelling.is_shellable (cx [ [ 0; 1 ]; [ 2; 3 ] ])));
    Alcotest.test_case "non-pure complexes are rejected" `Quick (fun () ->
        Alcotest.(check bool) "none" true
          (Shelling.find_shelling (cx [ [ 0; 1; 2 ]; [ 3; 4 ] ]) = None));
    Alcotest.test_case "is_shelling_order detects bad orders" `Quick (fun () ->
        (* two triangles meeting at one vertex: any order fails the
           codimension-1 condition *)
        let f1 = sx [ 0; 1; 2 ] and f2 = sx [ 2; 3; 4 ] in
        Alcotest.(check bool) "bad" false (Shelling.is_shelling_order [ f1; f2 ]));
    Alcotest.test_case "octahedron (binary pseudosphere) is shellable" `Quick
      (fun () ->
        let oct =
          Pseudosphere.Psph.realize ~vertex:Pseudosphere.Psph.default_vertex
            (Pseudosphere.Psph.binary 2)
        in
        match Shelling.find_shelling oct with
        | Some order ->
            Alcotest.(check int) "all facets" 8 (List.length order);
            Alcotest.(check bool) "valid" true (Shelling.is_shelling_order order)
        | None -> Alcotest.fail "expected a shelling");
    Alcotest.test_case "Figure 3 one-round sync complex is not pure" `Quick
      (fun () ->
        (* the union mixes a triangle with squares: shellability in the
           classical pure sense does not apply, find_shelling refuses *)
        let s =
          Pseudosphere.Input_complex.simplex_of_inputs [ (0, 0); (1, 1); (2, 0) ]
        in
        let c = Pseudosphere.Sync_complex.one_round ~k:1 s in
        Alcotest.(check bool) "not pure" false (Complex.is_pure c);
        Alcotest.(check bool) "refused" true (Shelling.find_shelling c = None));
    Alcotest.test_case "async one-round complex is shellable" `Quick (fun () ->
        let s =
          Pseudosphere.Input_complex.simplex_of_inputs [ (0, 0); (1, 1) ]
        in
        let c = Pseudosphere.Async_complex.one_round ~n:1 ~f:1 s in
        Alcotest.(check bool) "shellable" true (Shelling.is_shellable c));
    Alcotest.test_case "empty and singleton shellings" `Quick (fun () ->
        Alcotest.(check bool) "empty" true (Shelling.is_shellable Complex.empty);
        Alcotest.(check bool) "point" true (Shelling.is_shellable (Constructions.solid 0)));
  ]

(* Homology keeps no state between calls: numbering a complex's simplexes
   must not leave anything behind, even when every complex brings vertices
   the process has never seen (as salted [facets] queries do). *)
let index_tests =
  [
    Alcotest.test_case "fresh labels leave no live words behind" `Quick
      (fun () ->
        let edge tag i =
          Complex.of_simplex
            (Simplex.of_procs
               [ (0, Label.Str (Printf.sprintf "%s%d" tag i));
                 (1, Label.Str (Printf.sprintf "%s%d'" tag i)) ])
        in
        let run tag n =
          for i = 1 to n do
            if Homology.reduced_betti (edge tag i) <> [| 0; 0 |] then
              Alcotest.fail "an edge is contractible"
          done
        in
        run "warm" 1_000;
        Gc.full_major ();
        let before = (Gc.stat ()).live_words in
        run "fresh" 20_000;
        Gc.full_major ();
        let grown = (Gc.stat ()).live_words - before in
        if grown >= 20_000 then
          Alcotest.failf "live heap grew by %d words over 20000 complexes" grown);
  ]

let suites =
  [
    ("topology.simplex_index", index_tests);
    ("topology.snf", snf_tests);
    ("topology.homology_z", homology_z_tests);
    ("topology.constructions", construction_tests);
    ("topology.shelling", shelling_tests);
  ]
