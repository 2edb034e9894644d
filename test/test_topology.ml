(* Unit and property tests for the simplicial-topology substrate. *)

open Psph_topology

let v = Vertex.anon

let sx l = Simplex.of_list (List.map v l)

let cx ls = Complex.of_facets (List.map sx ls)

(* ------------------------------------------------------------------ *)
(* Classical test spaces                                               *)
(* ------------------------------------------------------------------ *)

let point = cx [ [ 0 ] ]

let two_points = cx [ [ 0 ]; [ 1 ] ]

let interval = cx [ [ 0; 1 ] ]

let circle = cx [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]

let solid_triangle = cx [ [ 0; 1; 2 ] ]

let sphere2 = Complex.boundary_complex (Simplex.of_list (List.map v [ 0; 1; 2; 3 ]))

let wedge_two_circles = cx [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ]; [ 0; 3 ]; [ 3; 4 ]; [ 0; 4 ] ]

(* The Moebius 7-vertex minimal triangulation of the torus: triangles
   {i, i+1, i+3} and {i, i+2, i+3} mod 7. *)
let torus =
  cx
    (List.concat_map
       (fun i -> [ [ i; (i + 1) mod 7; (i + 3) mod 7 ]; [ i; (i + 2) mod 7; (i + 3) mod 7 ] ])
       [ 0; 1; 2; 3; 4; 5; 6 ])

(* The antipodal quotient of the icosahedron: a 6-vertex RP^2. *)
let rp2 =
  cx
    [ [ 0; 1; 2 ]; [ 0; 2; 3 ]; [ 0; 3; 4 ]; [ 0; 4; 5 ]; [ 0; 1; 5 ];
      [ 1; 2; 4 ]; [ 2; 4; 5 ]; [ 2; 3; 5 ]; [ 1; 3; 5 ]; [ 1; 3; 4 ] ]

(* Betti vectors are compared up to trailing zeros: a collapsed complex can
   have a lower dimension than the original while representing the same
   homology. *)
let rec strip_trailing_zeros = function
  | [] -> []
  | x :: rest -> (
      match strip_trailing_zeros rest with
      | [] when x = 0 -> []
      | rest' -> x :: rest')

let same_betti a b =
  strip_trailing_zeros (Array.to_list a) = strip_trailing_zeros (Array.to_list b)

let check_betti name complex expected () =
  let b = Array.to_list (Homology.betti complex) in
  Alcotest.(check (list int)) name expected b

let check_reduced name complex expected () =
  let b = Array.to_list (Homology.reduced_betti complex) in
  Alcotest.(check (list int)) name expected b

(* ------------------------------------------------------------------ *)
(* Simplex tests                                                       *)
(* ------------------------------------------------------------------ *)

let simplex_tests =
  [
    Alcotest.test_case "dim of empty is -1" `Quick (fun () ->
        Alcotest.(check int) "dim" (-1) (Simplex.dim Simplex.empty));
    Alcotest.test_case "of_list sorts and dedupes" `Quick (fun () ->
        let s = sx [ 2; 0; 1; 2; 0 ] in
        Alcotest.(check int) "dim" 2 (Simplex.dim s);
        Alcotest.(check bool) "eq" true (Simplex.equal s (sx [ 0; 1; 2 ])));
    Alcotest.test_case "mem by binary search" `Quick (fun () ->
        let s = sx [ 0; 2; 4; 6; 8 ] in
        List.iter
          (fun i ->
            Alcotest.(check bool)
              (Printf.sprintf "mem %d" i)
              (i mod 2 = 0) (Simplex.mem (v i) s))
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]);
    Alcotest.test_case "subset / proper_subset" `Quick (fun () ->
        Alcotest.(check bool) "sub" true (Simplex.subset (sx [ 0; 2 ]) (sx [ 0; 1; 2 ]));
        Alcotest.(check bool) "not sub" false (Simplex.subset (sx [ 0; 3 ]) (sx [ 0; 1; 2 ]));
        Alcotest.(check bool) "self" true (Simplex.subset (sx [ 0; 1 ]) (sx [ 0; 1 ]));
        Alcotest.(check bool) "proper" false (Simplex.proper_subset (sx [ 0; 1 ]) (sx [ 0; 1 ])));
    Alcotest.test_case "facets of a 2-simplex" `Quick (fun () ->
        let fs = Simplex.facets (sx [ 0; 1; 2 ]) in
        Alcotest.(check int) "count" 3 (List.length fs);
        List.iter (fun f -> Alcotest.(check int) "dim" 1 (Simplex.dim f)) fs);
    Alcotest.test_case "faces include empty and self" `Quick (fun () ->
        let fs = Simplex.faces (sx [ 0; 1 ]) in
        Alcotest.(check int) "count" 4 (List.length fs));
    Alcotest.test_case "proper_faces of a 2-simplex" `Quick (fun () ->
        Alcotest.(check int) "count" 6 (List.length (Simplex.proper_faces (sx [ 0; 1; 2 ]))));
    Alcotest.test_case "union inter diff" `Quick (fun () ->
        let a = sx [ 0; 1; 2 ] and b = sx [ 1; 2; 3 ] in
        Alcotest.(check bool) "union" true (Simplex.equal (Simplex.union a b) (sx [ 0; 1; 2; 3 ]));
        Alcotest.(check bool) "inter" true (Simplex.equal (Simplex.inter a b) (sx [ 1; 2 ]));
        Alcotest.(check bool) "diff" true (Simplex.equal (Simplex.diff a b) (sx [ 0 ])));
    Alcotest.test_case "proc_simplex is chromatic" `Quick (fun () ->
        let s = Simplex.proc_simplex 3 in
        Alcotest.(check bool) "chromatic" true (Simplex.is_chromatic s);
        Alcotest.(check int) "dim" 3 (Simplex.dim s);
        Alcotest.(check int) "ids" 4 (Pid.Set.cardinal (Simplex.ids s)));
    Alcotest.test_case "without_ids removes K" `Quick (fun () ->
        let s = Simplex.proc_simplex 3 in
        let s' = Simplex.without_ids (Pid.Set.of_list [ 1; 3 ]) s in
        Alcotest.(check int) "dim" 1 (Simplex.dim s');
        Alcotest.(check bool) "ids" true
          (Pid.Set.equal (Simplex.ids s') (Pid.Set.of_list [ 0; 2 ])));
    Alcotest.test_case "label_of finds labels" `Quick (fun () ->
        let s = Simplex.of_procs [ (0, Label.Int 7); (1, Label.Int 9) ] in
        Alcotest.(check bool) "P0" true (Simplex.label_of 0 s = Some (Label.Int 7));
        Alcotest.(check bool) "P2" true (Simplex.label_of 2 s = None));
    Alcotest.test_case "anon simplex is not chromatic" `Quick (fun () ->
        Alcotest.(check bool) "chromatic" false (Simplex.is_chromatic (sx [ 0; 1 ])));
    Alcotest.test_case "map collapses" `Quick (fun () ->
        let s = sx [ 0; 1; 2 ] in
        let f _ = v 0 in
        Alcotest.(check int) "dim" 0 (Simplex.dim (Simplex.map f s)));
  ]

(* ------------------------------------------------------------------ *)
(* Complex tests                                                       *)
(* ------------------------------------------------------------------ *)

let complex_tests =
  [
    Alcotest.test_case "closure under faces" `Quick (fun () ->
        let c = solid_triangle in
        Alcotest.(check int) "count" 7 (Complex.num_simplices c);
        Alcotest.(check bool) "edge" true (Complex.mem (sx [ 0; 2 ]) c);
        Alcotest.(check bool) "vertex" true (Complex.mem (sx [ 1 ]) c));
    Alcotest.test_case "f-vector of solid triangle" `Quick (fun () ->
        Alcotest.(check (list int)) "f" [ 3; 3; 1 ]
          (Array.to_list (Complex.f_vector solid_triangle)));
    Alcotest.test_case "euler: sphere is 2, torus is 0" `Quick (fun () ->
        Alcotest.(check int) "sphere" 2 (Complex.euler sphere2);
        Alcotest.(check int) "torus" 0 (Complex.euler torus);
        Alcotest.(check int) "circle" 0 (Complex.euler circle);
        Alcotest.(check int) "rp2" 1 (Complex.euler rp2));
    Alcotest.test_case "facets" `Quick (fun () ->
        let c = cx [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 4 ] ] in
        let fs = Complex.facets c in
        Alcotest.(check int) "count" 3 (List.length fs);
        Alcotest.(check bool) "pure" false (Complex.is_pure c));
    Alcotest.test_case "sphere2 is pure" `Quick (fun () ->
        Alcotest.(check bool) "pure" true (Complex.is_pure sphere2));
    Alcotest.test_case "union and inter" `Quick (fun () ->
        let a = cx [ [ 0; 1 ]; [ 1; 2 ] ] and b = cx [ [ 1; 2 ]; [ 2; 3 ] ] in
        let u = Complex.union a b and i = Complex.inter a b in
        Alcotest.(check int) "u edges" 3 (Complex.count_of_dim u 1);
        Alcotest.(check int) "i edges" 1 (Complex.count_of_dim i 1);
        Alcotest.(check bool) "i is complex" true (Complex.mem (sx [ 1 ]) i));
    Alcotest.test_case "skeleton" `Quick (fun () ->
        let sk = Complex.skeleton 1 solid_triangle in
        Alcotest.(check int) "dim" 1 (Complex.dim sk);
        Alcotest.(check bool) "eq circle shape" true
          (Complex.equal sk (cx [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ])));
    Alcotest.test_case "star and link" `Quick (fun () ->
        let st = Complex.star (v 0) sphere2 in
        let lk = Complex.link (v 0) sphere2 in
        Alcotest.(check int) "star dim" 2 (Complex.dim st);
        Alcotest.(check bool) "link is circle" true
          (Complex.equal lk (cx [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ])));
    Alcotest.test_case "join of point pairs is a 4-cycle" `Quick (fun () ->
        let a = cx [ [ 0 ]; [ 1 ] ] and b = cx [ [ 2 ]; [ 3 ] ] in
        let j = Complex.join a b in
        Alcotest.(check (list int)) "f" [ 4; 4 ] (Array.to_list (Complex.f_vector j));
        Alcotest.(check (list int)) "betti" [ 1; 1 ] (Array.to_list (Homology.betti j)));
    Alcotest.test_case "join disjointness enforced" `Quick (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Complex.join: vertex sets not disjoint") (fun () ->
            ignore (Complex.join point point)));
    Alcotest.test_case "connected components" `Quick (fun () ->
        Alcotest.(check int) "two points" 2
          (List.length (Complex.connected_components two_points));
        Alcotest.(check int) "circle" 1 (List.length (Complex.connected_components circle));
        Alcotest.(check bool) "connected" true (Complex.is_connected circle);
        Alcotest.(check bool) "empty not connected" false (Complex.is_connected Complex.empty));
    Alcotest.test_case "map quotient" `Quick (fun () ->
        let q = Complex.map (fun _ -> v 0) circle in
        Alcotest.(check int) "dim" 0 (Complex.dim q);
        Alcotest.(check int) "count" 1 (Complex.num_simplices q));
    Alcotest.test_case "diff_facets" `Quick (fun () ->
        let c = cx [ [ 0; 1 ]; [ 1; 2 ] ] in
        let d = Complex.diff_facets c (cx [ [ 1; 2 ] ]) in
        Alcotest.(check int) "edges" 1 (Complex.count_of_dim d 1));
    Alcotest.test_case "restrict_ids" `Quick (fun () ->
        let s = Simplex.proc_simplex 2 in
        let c = Complex.of_simplex s in
        let r = Complex.restrict_ids (Pid.Set.of_list [ 0; 1 ]) c in
        Alcotest.(check int) "dim" 1 (Complex.dim r));
    Alcotest.test_case "empty complex conventions" `Quick (fun () ->
        Alcotest.(check int) "dim" (-1) (Complex.dim Complex.empty);
        Alcotest.(check int) "euler" 0 (Complex.euler Complex.empty);
        Alcotest.(check int) "simplices" 0 (Complex.num_simplices Complex.empty));
  ]

(* ------------------------------------------------------------------ *)
(* Homology tests                                                      *)
(* ------------------------------------------------------------------ *)

let homology_tests =
  [
    Alcotest.test_case "point" `Quick (check_betti "betti" point [ 1 ]);
    Alcotest.test_case "two points" `Quick (check_betti "betti" two_points [ 2 ]);
    Alcotest.test_case "interval" `Quick (check_betti "betti" interval [ 1; 0 ]);
    Alcotest.test_case "circle" `Quick (check_betti "betti" circle [ 1; 1 ]);
    Alcotest.test_case "solid triangle" `Quick (check_betti "betti" solid_triangle [ 1; 0; 0 ]);
    Alcotest.test_case "2-sphere" `Quick (check_betti "betti" sphere2 [ 1; 0; 1 ]);
    Alcotest.test_case "torus (Z/2)" `Quick (check_betti "betti" torus [ 1; 2; 1 ]);
    Alcotest.test_case "RP2 (Z/2)" `Quick (check_betti "betti" rp2 [ 1; 1; 1 ]);
    Alcotest.test_case "wedge of two circles" `Quick
      (check_betti "betti" wedge_two_circles [ 1; 2 ]);
    Alcotest.test_case "reduced: two points" `Quick
      (check_reduced "reduced" two_points [ 1 ]);
    Alcotest.test_case "reduced: sphere" `Quick (check_reduced "reduced" sphere2 [ 0; 0; 1 ]);
    Alcotest.test_case "boundary of 4-simplex is 3-sphere" `Quick (fun () ->
        let s3 = Complex.boundary_complex (Simplex.of_list (List.map v [ 0; 1; 2; 3; 4 ])) in
        check_betti "betti" s3 [ 1; 0; 0; 1 ] ());
    Alcotest.test_case "connectivity values" `Quick (fun () ->
        Alcotest.(check int) "empty" (-2) (Homology.connectivity Complex.empty);
        Alcotest.(check int) "two points" (-1) (Homology.connectivity two_points);
        Alcotest.(check int) "circle" 0 (Homology.connectivity circle);
        Alcotest.(check int) "sphere2" 1 (Homology.connectivity sphere2);
        Alcotest.(check int) "solid" 2 (Homology.connectivity solid_triangle));
    Alcotest.test_case "is_k_connected conventions" `Quick (fun () ->
        Alcotest.(check bool) "k<=-2 always" true (Homology.is_k_connected Complex.empty (-2));
        Alcotest.(check bool) "empty not (-1)" false (Homology.is_k_connected Complex.empty (-1));
        Alcotest.(check bool) "2pts (-1)" true (Homology.is_k_connected two_points (-1));
        Alcotest.(check bool) "2pts not 0" false (Homology.is_k_connected two_points 0);
        Alcotest.(check bool) "sphere 1" true (Homology.is_k_connected sphere2 1);
        Alcotest.(check bool) "sphere not 2" false (Homology.is_k_connected sphere2 2));
    Alcotest.test_case "euler consistency on spaces" `Quick (fun () ->
        List.iter
          (fun c ->
            Alcotest.(check int) "chi" (Complex.euler c) (Homology.euler_from_betti c))
          [ point; two_points; interval; circle; sphere2; torus; rp2;
            wedge_two_circles; solid_triangle ]);
    Alcotest.test_case "max_dim truncation" `Quick (fun () ->
        let b = Homology.reduced_betti ~max_dim:0 torus in
        Alcotest.(check int) "len" 1 (Array.length b);
        Alcotest.(check int) "b0" 0 b.(0));
  ]

(* ------------------------------------------------------------------ *)
(* Z2 matrix tests                                                     *)
(* ------------------------------------------------------------------ *)

let z2_tests =
  [
    Alcotest.test_case "sym_diff" `Quick (fun () ->
        Alcotest.(check (list int)) "xor" [ 1; 4 ] (Z2_matrix.sym_diff [ 1; 2; 3 ] [ 2; 3; 4 ]);
        Alcotest.(check (list int)) "self" [] (Z2_matrix.sym_diff [ 1; 2 ] [ 1; 2 ]));
    Alcotest.test_case "rank identity" `Quick (fun () ->
        Alcotest.(check int) "rank" 3 (Z2_matrix.rank [ [ 0 ]; [ 1 ]; [ 2 ] ]));
    Alcotest.test_case "rank dependent columns" `Quick (fun () ->
        Alcotest.(check int) "rank" 2 (Z2_matrix.rank [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]));
    Alcotest.test_case "rank zero matrix" `Quick (fun () ->
        Alcotest.(check int) "rank" 0 (Z2_matrix.rank [ []; [] ]));
    Alcotest.test_case "low" `Quick (fun () ->
        Alcotest.(check (option int)) "low" (Some 9) (Z2_matrix.low [ 1; 5; 9 ]);
        Alcotest.(check (option int)) "low empty" None (Z2_matrix.low []));
  ]

(* ------------------------------------------------------------------ *)
(* Collapse tests                                                      *)
(* ------------------------------------------------------------------ *)

let collapse_tests =
  [
    Alcotest.test_case "solid triangle collapses to a point" `Quick (fun () ->
        Alcotest.(check bool) "collapsible" true (Collapse.is_collapsible_to_point solid_triangle));
    Alcotest.test_case "solid 3-simplex collapses to a point" `Quick (fun () ->
        let c = Complex.of_simplex (Simplex.of_list (List.map v [ 0; 1; 2; 3 ])) in
        Alcotest.(check bool) "collapsible" true (Collapse.is_collapsible_to_point c));
    Alcotest.test_case "circle has no free faces" `Quick (fun () ->
        Alcotest.(check int) "free" 0 (List.length (Collapse.free_faces circle));
        Alcotest.(check bool) "not collapsible" false (Collapse.is_collapsible_to_point circle));
    Alcotest.test_case "sphere does not collapse" `Quick (fun () ->
        let r = Collapse.collapse sphere2 in
        Alcotest.(check bool) "unchanged" true (Complex.equal r sphere2));
    Alcotest.test_case "collapse preserves homology" `Quick (fun () ->
        List.iter
          (fun c ->
            let r = Collapse.collapse c in
            Alcotest.(check bool) "betti" true
              (same_betti (Homology.betti c) (Homology.betti r)))
          [ solid_triangle; circle; sphere2; torus; wedge_two_circles ]);
    Alcotest.test_case "free face detection on interval" `Quick (fun () ->
        let ff = Collapse.free_faces interval in
        Alcotest.(check int) "count" 2 (List.length ff));
    Alcotest.test_case "reduce collapses a solid 3-simplex to one vertex" `Quick
      (fun () ->
        let c = Complex.of_simplex (Simplex.of_list (List.map v [ 0; 1; 2; 3 ])) in
        let core, removed = Collapse.reduce c in
        Alcotest.(check int) "critical cells" 1 (Complex.num_simplices core);
        Alcotest.(check int) "removed" (Complex.num_simplices c - 1) removed);
    Alcotest.test_case "reduce leaves a sphere untouched" `Quick (fun () ->
        let core, removed = Collapse.reduce sphere2 in
        Alcotest.(check int) "removed" 0 removed;
        Alcotest.(check bool) "unchanged" true (Complex.equal core sphere2));
    Alcotest.test_case "matching pairs are facet/coface pairs" `Quick (fun () ->
        List.iter
          (fun c ->
            let pairs, critical = Collapse.matching c in
            Alcotest.(check int) "accounts every simplex"
              (Complex.num_simplices c)
              ((2 * List.length pairs) + List.length critical);
            List.iter
              (fun (f, t) ->
                Alcotest.(check int) "dims" (Simplex.dim f + 1) (Simplex.dim t);
                Alcotest.(check bool) "face" true (Simplex.subset f t))
              pairs)
          [ solid_triangle; circle; sphere2; torus; wedge_two_circles; interval ]);
  ]

(* ------------------------------------------------------------------ *)
(* Subdivision tests                                                   *)
(* ------------------------------------------------------------------ *)

let subdivision_tests =
  [
    Alcotest.test_case "barycentric of an interval" `Quick (fun () ->
        let b = Subdivision.barycentric interval in
        Alcotest.(check (list int)) "f" [ 3; 2 ] (Array.to_list (Complex.f_vector b)));
    Alcotest.test_case "barycentric of a triangle" `Quick (fun () ->
        let b = Subdivision.barycentric solid_triangle in
        Alcotest.(check (list int)) "f" [ 7; 12; 6 ] (Array.to_list (Complex.f_vector b)));
    Alcotest.test_case "barycentric preserves euler" `Quick (fun () ->
        List.iter
          (fun c ->
            Alcotest.(check int) "chi" (Complex.euler c)
              (Complex.euler (Subdivision.barycentric c)))
          [ interval; circle; solid_triangle; sphere2; torus ]);
    Alcotest.test_case "barycentric preserves homology" `Quick (fun () ->
        List.iter
          (fun c ->
            Alcotest.(check (list int))
              "betti"
              (Array.to_list (Homology.betti c))
              (Array.to_list (Homology.betti (Subdivision.barycentric c))))
          [ circle; sphere2; wedge_two_circles ]);
    Alcotest.test_case "iterated barycentric" `Quick (fun () ->
        let b2 = Subdivision.barycentric_iter 2 interval in
        Alcotest.(check (list int)) "f" [ 5; 4 ] (Array.to_list (Complex.f_vector b2)));
    Alcotest.test_case "chromatic subdivision of an edge" `Quick (fun () ->
        let c = Subdivision.chromatic_of_simplex (Simplex.proc_simplex 1) in
        Alcotest.(check int) "facets" 3 (List.length (Complex.facets c));
        Alcotest.(check (list int)) "betti" [ 1; 0 ] (Array.to_list (Homology.betti c)));
    Alcotest.test_case "chromatic subdivision of a triangle" `Quick (fun () ->
        let c = Subdivision.chromatic_of_simplex (Simplex.proc_simplex 2) in
        Alcotest.(check int) "facets" 13 (List.length (Complex.facets c));
        Alcotest.(check (list int)) "betti" [ 1; 0; 0 ] (Array.to_list (Homology.betti c));
        Alcotest.(check bool) "pure" true (Complex.is_pure c));
    Alcotest.test_case "chromatic facet count formula" `Quick (fun () ->
        Alcotest.(check int) "n=0" 1 (Subdivision.facet_count_chromatic 0);
        Alcotest.(check int) "n=1" 3 (Subdivision.facet_count_chromatic 1);
        Alcotest.(check int) "n=2" 13 (Subdivision.facet_count_chromatic 2);
        Alcotest.(check int) "n=3" 75 (Subdivision.facet_count_chromatic 3));
    Alcotest.test_case "chromatic rejects non-chromatic" `Quick (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Subdivision.chromatic_of_simplex: simplex is not chromatic")
          (fun () -> ignore (Subdivision.chromatic_of_simplex (sx [ 0; 1 ]))));
    Alcotest.test_case "chromatic subdivision is chromatic" `Quick (fun () ->
        let c = Subdivision.chromatic_of_simplex (Simplex.proc_simplex 2) in
        List.iter
          (fun s -> Alcotest.(check bool) "chromatic" true (Simplex.is_chromatic s))
          (Complex.facets c));
  ]

(* ------------------------------------------------------------------ *)
(* Sperner tests                                                       *)
(* ------------------------------------------------------------------ *)

let sperner_tests =
  let base = sx [ 0; 1; 2 ] in
  let allowed = Sperner.barycentric_allowed base in
  (* colour each barycentre by the minimum allowed colour: a canonical
     Sperner colouring *)
  let chi w = List.fold_left min max_int (allowed w) in
  [
    Alcotest.test_case "canonical colouring is Sperner" `Quick (fun () ->
        let b = Subdivision.barycentric (Complex.of_simplex base) in
        Alcotest.(check bool) "sperner" true (Sperner.is_sperner_colouring ~allowed chi b));
    Alcotest.test_case "Sperner's lemma on sd(triangle)" `Quick (fun () ->
        let b = Subdivision.barycentric (Complex.of_simplex base) in
        Alcotest.(check bool) "odd panchromatic" true (Sperner.lemma_holds ~allowed chi 2 b));
    Alcotest.test_case "Sperner's lemma on sd^2(triangle)" `Quick (fun () ->
        let b = Subdivision.barycentric_iter 2 (Complex.of_simplex base) in
        Alcotest.(check bool) "odd panchromatic" true (Sperner.lemma_holds ~allowed chi 2 b));
    Alcotest.test_case "Sperner's lemma on sd(tetrahedron)" `Quick (fun () ->
        let base = sx [ 0; 1; 2; 3 ] in
        let allowed = Sperner.barycentric_allowed base in
        let chi w = List.fold_left min max_int (allowed w) in
        let b = Subdivision.barycentric (Complex.of_simplex base) in
        Alcotest.(check bool) "odd panchromatic" true (Sperner.lemma_holds ~allowed chi 3 b));
    Alcotest.test_case "max-colour variant also works" `Quick (fun () ->
        let chi w = List.fold_left max (-1) (allowed w) in
        let b = Subdivision.barycentric (Complex.of_simplex base) in
        Alcotest.(check bool) "odd panchromatic" true (Sperner.lemma_holds ~allowed chi 2 b));
    Alcotest.test_case "distinct_colours" `Quick (fun () ->
        let chi = function Vertex.Anon i -> i mod 2 | Vertex.Proc _ | Vertex.Bary _ -> 0 in
        Alcotest.(check int) "colours" 2 (Sperner.distinct_colours chi (sx [ 0; 1; 2 ])));
    Alcotest.test_case "non-sperner colouring detected" `Quick (fun () ->
        let b = Subdivision.barycentric (Complex.of_simplex base) in
        let bad _ = 0 in
        Alcotest.(check bool) "not sperner" false
          (Sperner.is_sperner_colouring ~allowed bad b));
  ]

(* ------------------------------------------------------------------ *)
(* Simplicial map tests                                                *)
(* ------------------------------------------------------------------ *)

let map_tests =
  [
    Alcotest.test_case "identity is an isomorphism" `Quick (fun () ->
        Alcotest.(check bool) "iso" true
          (Simplicial_map.is_isomorphism_via (fun x -> x) sphere2 sphere2));
    Alcotest.test_case "relabeling is an isomorphism" `Quick (fun () ->
        let mu = function Vertex.Anon i -> Vertex.Anon (i + 10) | w -> w in
        let cod = Complex.map mu circle in
        Alcotest.(check bool) "iso" true (Simplicial_map.is_isomorphism_via mu circle cod));
    Alcotest.test_case "collapse map is simplicial but not iso" `Quick (fun () ->
        let mu _ = v 0 in
        let cod = Complex.map mu circle in
        Alcotest.(check bool) "simplicial" true (Simplicial_map.is_simplicial mu circle cod);
        Alcotest.(check bool) "not injective" false (Simplicial_map.is_injective_on mu circle));
    Alcotest.test_case "find_isomorphism circle vs relabeled circle" `Quick (fun () ->
        let other = cx [ [ 7; 8 ]; [ 8; 9 ]; [ 7; 9 ] ] in
        Alcotest.(check bool) "iso" true
          (Simplicial_map.are_isomorphic ~respect_pids:false circle other));
    Alcotest.test_case "circle vs 4-cycle not isomorphic" `Quick (fun () ->
        let square = cx [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ] in
        Alcotest.(check bool) "not iso" false
          (Simplicial_map.are_isomorphic ~respect_pids:false circle square));
    Alcotest.test_case "pid-respecting isomorphism on proc complexes" `Quick (fun () ->
        let a = Complex.of_facets [ Simplex.of_procs [ (0, Label.Int 1); (1, Label.Int 2) ] ] in
        let b = Complex.of_facets [ Simplex.of_procs [ (0, Label.Int 2); (1, Label.Int 1) ] ] in
        Alcotest.(check bool) "pid-respecting iso exists" true
          (Simplicial_map.are_isomorphic ~respect_pids:true a b);
        Alcotest.(check bool) "free iso exists" true
          (Simplicial_map.are_isomorphic ~respect_pids:false a b));
    Alcotest.test_case "different sizes never isomorphic" `Quick (fun () ->
        Alcotest.(check bool) "not iso" false
          (Simplicial_map.are_isomorphic ~respect_pids:false circle two_points));
  ]

(* ------------------------------------------------------------------ *)
(* Pid / Label / Vertex ordering tests                                 *)
(* ------------------------------------------------------------------ *)

let order_tests =
  [
    Alcotest.test_case "pid basics" `Quick (fun () ->
        Alcotest.(check int) "to_int" 3 (Pid.to_int (Pid.of_int 3));
        Alcotest.check_raises "negative" (Invalid_argument "Pid.of_int: negative pid")
          (fun () -> ignore (Pid.of_int (-1))));
    Alcotest.test_case "pid set lexicographic order" `Quick (fun () ->
        let open Pid.Set in
        Alcotest.(check bool) "empty first" true (compare_lex empty (of_list [ 0 ]) < 0);
        Alcotest.(check bool) "{0} < {1}" true
          (compare_lex (of_list [ 0 ]) (of_list [ 1 ]) < 0);
        Alcotest.(check bool) "{0} < {0;1}" true
          (compare_lex (of_list [ 0 ]) (of_list [ 0; 1 ]) < 0));
    Alcotest.test_case "pid set size-lex order (Lemma 15 ordering)" `Quick (fun () ->
        let open Pid.Set in
        Alcotest.(check bool) "{2} < {0;1}" true
          (compare_size_lex (of_list [ 2 ]) (of_list [ 0; 1 ]) < 0);
        Alcotest.(check bool) "{0;2} < {1;2}" true
          (compare_size_lex (of_list [ 0; 2 ]) (of_list [ 1; 2 ]) < 0));
    Alcotest.test_case "pid universe" `Quick (fun () ->
        Alcotest.(check int) "card" 4 (Pid.Set.cardinal (Pid.universe 3));
        Alcotest.(check (list int)) "all" [ 0; 1; 2 ] (Pid.all 2));
    Alcotest.test_case "label order is antisymmetric on samples" `Quick (fun () ->
        let labels =
          [ Label.Unit; Label.Bool true; Label.Int 0; Label.Int 1; Label.Str "a";
            Label.Pid 0; Label.pid_set [ 0; 1 ]; Label.Vec [| 1; 2 |];
            Label.Pair (Label.Int 1, Label.Unit); Label.List [ Label.Int 1 ] ]
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let c1 = Label.compare a b and c2 = Label.compare b a in
                Alcotest.(check int) "antisym" 0 (compare c1 (-c2)))
              labels)
          labels);
    Alcotest.test_case "label vec ordering by length then content" `Quick (fun () ->
        Alcotest.(check bool) "shorter first" true
          (Label.compare (Label.Vec [| 9 |]) (Label.Vec [| 0; 0 |]) < 0);
        Alcotest.(check bool) "content" true
          (Label.compare (Label.Vec [| 0; 1 |]) (Label.Vec [| 0; 2 |]) < 0));
    Alcotest.test_case "vertex pid and label projections" `Quick (fun () ->
        let w = Vertex.proc 2 (Label.Int 5) in
        Alcotest.(check (option int)) "pid" (Some 2) (Vertex.pid w);
        Alcotest.(check bool) "label" true (Vertex.label w = Some (Label.Int 5));
        Alcotest.(check (option int)) "anon pid" None (Vertex.pid (v 0)));
    Alcotest.test_case "vertex relabel" `Quick (fun () ->
        let w = Vertex.relabel (fun _ -> Label.Int 9) (Vertex.proc 1 Label.Unit) in
        Alcotest.(check bool) "relabeled" true (Vertex.label w = Some (Label.Int 9));
        Alcotest.(check bool) "anon unchanged" true
          (Vertex.equal (Vertex.relabel (fun _ -> Label.Int 9) (v 3)) (v 3)));
    Alcotest.test_case "label pretty printing" `Quick (fun () ->
        Alcotest.(check string) "pair" "(1,P0)"
          (Label.to_string (Label.Pair (Label.Int 1, Label.Pid 0)));
        Alcotest.(check string) "vec" "<1,2>" (Label.to_string (Label.Vec [| 1; 2 |])));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let gen_small_complex =
  QCheck2.Gen.(
    let facet = list_size (int_range 1 4) (int_range 0 6) in
    list_size (int_range 1 6) facet |> map (fun fs -> cx fs))

(* Labels built the way round labels are: each round pairs an earlier
   label with a list of earlier labels, drawn by index from everything
   built so far, so the result shares sub-terms physically. *)
let gen_shared_labels =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        return Label.Unit;
        map (fun b -> Label.Bool b) bool;
        map (fun i -> Label.Int i) (int_range 0 3);
        map (fun s -> Label.Str s) (string_size ~gen:(char_range 'a' 'b') (int_range 0 2));
        map (fun p -> Label.Pid p) (int_range 0 2);
        map Label.pid_set (list_size (int_range 0 3) (int_range 0 3));
        map (fun l -> Label.Vec (Array.of_list l)) (list_size (int_range 0 3) (int_range 0 2));
      ]
  in
  let rec rounds k pool =
    if k = 0 then return (Array.to_list pool)
    else
      let pick = int_bound (Array.length pool - 1) in
      let* fresh =
        list_size (int_range 1 3)
          (let* prev = pick and* heard = list_size (int_range 0 3) pick in
           return
             (Label.Pair (pool.(prev), Label.List (List.map (Array.get pool) heard))))
      in
      rounds (k - 1) (Array.append pool (Array.of_list fresh))
  in
  let* leaves = list_size (int_range 1 4) leaf in
  rounds 3 (Array.of_list leaves)

(* a structurally equal label sharing no heap block with the original *)
let rec copy_label = function
  | Label.Unit -> Label.Unit
  | Label.Bool b -> Label.Bool b
  | Label.Int i -> Label.Int i
  | Label.Str s -> Label.Str (Bytes.to_string (Bytes.of_string s))
  | Label.Pid p -> Label.Pid p
  | Label.Pid_set s -> Label.Pid_set (Pid.Set.of_list (Pid.Set.elements s))
  | Label.Vec v -> Label.Vec (Array.copy v)
  | Label.Pair (a, b) -> Label.Pair (copy_label a, copy_label b)
  | Label.List l -> Label.List (List.map copy_label l)

let rec copy_vertex = function
  | Vertex.Proc (p, l) -> Vertex.Proc (p, copy_label l)
  | Vertex.Anon i -> Vertex.Anon i
  | Vertex.Bary vs -> Vertex.Bary (List.map copy_vertex vs)

(* every ordered pair of a list, each side also compared as a deep copy *)
let agrees_on_copies compare copy xs =
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          let c = compare (copy a) (copy b) in
          compare a b = c && compare a (copy b) = c && compare (copy a) b = c)
        xs)
    xs

let prop_tests =
  let open QCheck2 in
  let count = 60 in
  [
    Test.make ~count ~name:"euler equals alternating betti sum" gen_small_complex
      (fun c -> Complex.euler c = Homology.euler_from_betti c);
    Test.make ~count ~name:"collapse preserves betti" gen_small_complex (fun c ->
        same_betti (Homology.betti (Collapse.collapse c)) (Homology.betti c));
    Test.make ~count ~name:"morse reduce preserves betti and accounts cells"
      gen_small_complex (fun c ->
        let core, removed = Collapse.reduce c in
        Complex.num_simplices core + removed = Complex.num_simplices c
        && same_betti (Homology.betti core) (Homology.betti c));
    Test.make ~count ~name:"label compare on shared sub-terms agrees with deep copies"
      gen_shared_labels (fun ls -> agrees_on_copies Label.compare copy_label ls);
    Test.make ~count ~name:"vertex compare on shared sub-terms agrees with deep copies"
      gen_shared_labels (fun ls ->
        let procs = List.mapi (fun i l -> Vertex.proc (i mod 2) l) ls in
        let barys =
          List.mapi (fun i v -> Vertex.Bary (v :: List.filteri (fun j _ -> j < i mod 3) procs)) procs
        in
        agrees_on_copies Vertex.compare copy_vertex (procs @ barys));
    Test.make ~count ~name:"barycentric preserves betti" gen_small_complex (fun c ->
        Homology.betti (Subdivision.barycentric c) = Homology.betti c);
    Test.make ~count ~name:"facets regenerate the complex" gen_small_complex (fun c ->
        Complex.equal (Complex.of_facets (Complex.facets c)) c);
    Test.make ~count ~name:"skeleton dim bound" gen_small_complex (fun c ->
        Complex.dim (Complex.skeleton 1 c) <= 1);
    Test.make ~count ~name:"union is idempotent" gen_small_complex (fun c ->
        Complex.equal (Complex.union c c) c);
    Test.make ~count ~name:"inter with self is self" gen_small_complex (fun c ->
        Complex.equal (Complex.inter c c) c);
    Test.make ~count ~name:"star is a subcomplex" gen_small_complex (fun c ->
        match Complex.vertices c with
        | [] -> true
        | w :: _ -> Complex.subcomplex (Complex.star w c) c);
    Test.make ~count ~name:"link of v excludes v" gen_small_complex (fun c ->
        match Complex.vertices c with
        | [] -> true
        | w :: _ ->
            List.for_all
              (fun s -> not (Simplex.mem w s))
              (Complex.simplices (Complex.link w c)));
    Test.make ~count ~name:"components partition vertices" gen_small_complex (fun c ->
        let comps = Complex.connected_components c in
        let total = List.fold_left (fun a s -> a + Vertex.Set.cardinal s) 0 comps in
        total = Complex.num_vertices c);
    Test.make ~count ~name:"simplex faces count is 2^(d+1)"
      QCheck2.Gen.(
        int_range 0 5 |> map (fun n -> Simplex.of_list (List.map v (List.init (n + 1) Fun.id))))
      (fun s -> List.length (Simplex.faces s) = 1 lsl Simplex.cardinal s);
    Test.make ~count ~name:"betti.(0) counts components" gen_small_complex (fun c ->
        (Homology.betti c).(0) = List.length (Complex.connected_components c));
    Test.make ~count
      ~name:"is_chromatic, without_ids, restrict_ids and label_of by vertex lists"
      QCheck2.Gen.(
        let vertex =
          oneof
            [
              map2 (fun p l -> Vertex.proc p (Label.Int l)) (int_range 0 3) (int_range 0 1);
              map Vertex.anon (int_range 0 2);
            ]
        in
        pair
          (list_size (int_range 0 6) vertex |> map Simplex.of_list)
          (list_size (int_range 0 4) (int_range 0 3) |> map Pid.Set.of_list))
      (fun (s, k) ->
        let vs = Simplex.vertices s in
        let pids = List.filter_map Vertex.pid vs in
        let chromatic =
          List.for_all (fun v -> Vertex.pid v <> None) vs
          && List.length (List.sort_uniq Int.compare pids) = List.length vs
        in
        let in_k v = match Vertex.pid v with Some p -> Pid.Set.mem p k | None -> false in
        let proc_of p v = match v with Vertex.Proc (q, l) when q = p -> Some l | _ -> None in
        Simplex.is_chromatic s = chromatic
        && Simplex.vertices (Simplex.without_ids k s)
           = List.filter (fun v -> not (in_k v)) vs
        && Simplex.vertices (Simplex.restrict_ids k s) = List.filter in_k vs
        && List.for_all
             (fun p -> Simplex.label_of p s = List.find_map (proc_of p) vs)
             [ 0; 1; 2; 3 ]);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ("topology.order", order_tests);
    ("topology.simplex", simplex_tests);
    ("topology.complex", complex_tests);
    ("topology.z2", z2_tests);
    ("topology.homology", homology_tests);
    ("topology.collapse", collapse_tests);
    ("topology.subdivision", subdivision_tests);
    ("topology.sperner", sperner_tests);
    ("topology.simplicial_map", map_tests);
    ("topology.properties", prop_tests);
  ]
