(* Tests for the pseudosphere core library: the paper's constructions. *)

open Psph_topology
open Psph_model
open Pseudosphere

let inputs n = List.init (n + 1) (fun i -> (i, i mod 2))

let input_simplex n = Input_complex.simplex_of_inputs (inputs n)

let betti c = Array.to_list (Homology.betti c)

(* ------------------------------------------------------------------ *)
(* Pseudosphere algebra (Definition 3, Lemma 4, Corollary 6)           *)
(* ------------------------------------------------------------------ *)

let psph_tests =
  [
    Alcotest.test_case "Figure 1: binary 2-pseudosphere is the octahedron" `Quick
      (fun () ->
        let c = Psph.realize ~vertex:Psph.default_vertex (Psph.binary 2) in
        Alcotest.(check (list int)) "f" [ 6; 12; 8 ] (Array.to_list (Complex.f_vector c));
        Alcotest.(check int) "chi" 2 (Complex.euler c);
        Alcotest.(check (list int)) "betti of S^2" [ 1; 0; 1 ] (betti c));
    Alcotest.test_case "binary n-pseudosphere is an n-sphere (n=1,2,3)" `Quick
      (fun () ->
        List.iter
          (fun n ->
            let c = Psph.realize ~vertex:Psph.default_vertex (Psph.binary n) in
            let expect = List.init (n + 1) (fun i -> if i = 0 || i = n then 1 else 0) in
            Alcotest.(check (list int)) (Printf.sprintf "S^%d" n) expect (betti c))
          [ 1; 2; 3 ]);
    Alcotest.test_case "Figure 2: psi(S^1; {0,1}) is a square" `Quick (fun () ->
        let c =
          Psph.realize ~vertex:Psph.default_vertex
            (Psph.uniform ~base:(Simplex.proc_simplex 1) [ Label.Int 0; Label.Int 1 ])
        in
        Alcotest.(check (list int)) "f" [ 4; 4 ] (Array.to_list (Complex.f_vector c));
        Alcotest.(check (list int)) "circle betti" [ 1; 1 ] (betti c));
    Alcotest.test_case "Figure 2: psi(S^0; {0,1,2}) is three points" `Quick (fun () ->
        let c =
          Psph.realize ~vertex:Psph.default_vertex
            (Psph.uniform ~base:(Simplex.proc_simplex 0)
               [ Label.Int 0; Label.Int 1; Label.Int 2 ])
        in
        Alcotest.(check (list int)) "f" [ 3 ] (Array.to_list (Complex.f_vector c));
        Alcotest.(check int) "conn -1 (Cor 6, m=0)" (-1) (Homology.connectivity c));
    Alcotest.test_case "Lemma 4.1: singleton value sets give the base simplex" `Quick
      (fun () ->
        let base = Simplex.proc_simplex 2 in
        let c =
          Psph.realize ~vertex:Psph.default_vertex (Psph.uniform ~base [ Label.Int 9 ])
        in
        Alcotest.(check (list int)) "f" [ 3; 3; 1 ] (Array.to_list (Complex.f_vector c));
        Alcotest.(check bool) "iso to solid base" true
          (Simplicial_map.are_isomorphic c (Complex.of_simplex base)));
    Alcotest.test_case "Lemma 4.2: empty value set deletes the vertex" `Quick (fun () ->
        let base = Simplex.proc_simplex 2 in
        let with_empty =
          Psph.create ~base ~values:(fun p -> if p = 1 then [] else [ Label.Int 0; Label.Int 1 ])
        in
        let without =
          Psph.create ~base:(Simplex.without_ids (Pid.Set.singleton 1) base)
            ~values:(fun _ -> [ Label.Int 0; Label.Int 1 ])
        in
        Alcotest.(check bool) "equal" true
          (Complex.equal (Psph.realize with_empty) (Psph.realize without));
        Alcotest.(check int) "dim" 1 (Psph.dim with_empty));
    Alcotest.test_case "uniform sorts once; shared builds each vertex once" `Quick
      (fun () ->
        let base = Simplex.proc_simplex 2 in
        let us = [ Label.Int 1; Label.Int 0; Label.Int 1 ] in
        Alcotest.(check bool) "uniform = create" true
          (Psph.equal (Psph.uniform ~base us) (Psph.create ~base ~values:(fun _ -> us)));
        Alcotest.(check bool) "empty" true (Psph.is_empty (Psph.uniform ~base []));
        let calls = ref 0 in
        let vertex =
          Psph.shared (fun p b u ->
              incr calls;
              Psph.paired_vertex p b u)
        in
        let v = vertex 1 Label.Unit (Label.Int 0) in
        Alcotest.(check bool) "same vertex again" true (vertex 1 Label.Unit (Label.Int 0) == v);
        Alcotest.(check bool) "the builder's vertex" true
          (Vertex.equal v (Psph.paired_vertex 1 Label.Unit (Label.Int 0)));
        ignore (vertex 2 Label.Unit (Label.Int 0));
        ignore (vertex 1 Label.Unit (Label.Int 1));
        Alcotest.(check int) "one build per pid and value" 3 !calls);
    Alcotest.test_case "Lemma 4.3: intersections are componentwise" `Quick (fun () ->
        let base = Simplex.proc_simplex 2 in
        let a = Psph.uniform ~base [ Label.Int 0; Label.Int 1 ] in
        let b = Psph.uniform ~base [ Label.Int 1; Label.Int 2 ] in
        let lhs = Complex.inter (Psph.realize a) (Psph.realize b) in
        let rhs = Psph.realize (Psph.inter a b) in
        Alcotest.(check bool) "equal" true (Complex.equal lhs rhs));
    Alcotest.test_case "Lemma 4.3 with different bases" `Quick (fun () ->
        let base = Simplex.proc_simplex 2 in
        let face = Simplex.without_ids (Pid.Set.singleton 2) base in
        let a = Psph.uniform ~base [ Label.Int 0; Label.Int 1 ] in
        let b = Psph.uniform ~base:face [ Label.Int 1 ] in
        let lhs = Complex.inter (Psph.realize a) (Psph.realize b) in
        let rhs = Psph.realize (Psph.inter a b) in
        Alcotest.(check bool) "equal" true (Complex.equal lhs rhs));
    Alcotest.test_case "Corollary 6: (m-1)-connectivity" `Quick (fun () ->
        List.iter
          (fun (m, sizes) ->
            let base = Simplex.proc_simplex m in
            let ps =
              Psph.create ~base ~values:(fun p ->
                  List.init (List.nth sizes p) (fun i -> Label.Int i))
            in
            let c = Psph.realize ps in
            Alcotest.(check bool)
              (Printf.sprintf "m=%d" m)
              true
              (Homology.is_k_connected c (m - 1)))
          [ (0, [ 2 ]); (1, [ 2; 3 ]); (2, [ 2; 2; 2 ]); (2, [ 1; 2; 3 ]) ]);
    Alcotest.test_case "facet and simplex counts" `Quick (fun () ->
        let ps = Psph.binary 2 in
        Alcotest.(check int) "facets" 8 (Psph.facet_count ps);
        Alcotest.(check int) "simplices" 26 (Psph.simplex_count ps);
        let c = Psph.realize ps in
        Alcotest.(check int) "matches realization" (Psph.simplex_count ps)
          (Complex.num_simplices c);
        Alcotest.(check int) "matches facets" (Psph.facet_count ps)
          (List.length (Complex.facets c)));
    Alcotest.test_case "subsumption" `Quick (fun () ->
        let base = Simplex.proc_simplex 1 in
        let big = Psph.uniform ~base [ Label.Int 0; Label.Int 1 ] in
        let small = Psph.uniform ~base [ Label.Int 0 ] in
        Alcotest.(check bool) "big subsumes small" true (Psph.subsumes big small);
        Alcotest.(check bool) "small does not subsume big" false (Psph.subsumes small big));
    Alcotest.test_case "non-chromatic base rejected" `Quick (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Psph.create: base simplex is not chromatic") (fun () ->
            ignore
              (Psph.create
                 ~base:(Simplex.of_list [ Vertex.anon 0; Vertex.anon 1 ])
                 ~values:(fun _ -> []))));
    Alcotest.test_case "input complex is psi(P^n; V)" `Quick (fun () ->
        let c = Input_complex.make ~n:2 ~values:[ 0; 1 ] in
        Alcotest.(check (list int)) "octahedron betti" [ 1; 0; 1 ] (betti c);
        let plain = Input_complex.binary 2 in
        Alcotest.(check bool) "plain iso" true (Simplicial_map.are_isomorphic c plain));
  ]

(* ------------------------------------------------------------------ *)
(* Asynchronous complexes (Section 6)                                  *)
(* ------------------------------------------------------------------ *)

let async_tests =
  [
    Alcotest.test_case "Lemma 11: explicit iso (grid)" `Quick (fun () ->
        List.iter
          (fun (n, f) ->
            Alcotest.(check bool)
              (Printf.sprintf "n=%d f=%d" n f)
              true
              (Async_complex.lemma11_holds ~n ~f (input_simplex n)))
          [ (1, 1); (2, 1); (2, 2); (3, 1) ]);
    Alcotest.test_case "A^1 facet count: ((sum_j C(n, j))^(n+1))" `Quick (fun () ->
        let c = Async_complex.one_round ~n:2 ~f:1 (input_simplex 2) in
        (* each process hears >= 2 of 3: 3 one-miss + 1 full = 4? no: hears
           self plus >= 1 of 2 others: 3 options; 3 processes: 27 facets *)
        Alcotest.(check int) "facets" 27 (List.length (Complex.facets c)));
    Alcotest.test_case "A^1 equals enumerated executions" `Quick (fun () ->
        List.iter
          (fun (n, f) ->
            let formula = Async_complex.one_round ~n ~f (input_simplex n) in
            let enumerated = Enumerated.async ~n ~f ~r:1 (inputs n) in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d f=%d" n f)
              true
              (Complex.equal formula enumerated))
          [ (1, 1); (2, 1); (2, 2) ]);
    Alcotest.test_case "A^2 equals enumerated executions" `Quick (fun () ->
        let formula = Async_complex.rounds ~n:2 ~f:1 ~r:2 (input_simplex 2) in
        let enumerated = Enumerated.async ~n:2 ~f:1 ~r:2 (inputs 2) in
        Alcotest.(check bool) "equal" true (Complex.equal formula enumerated));
    Alcotest.test_case "P(S^m) empty when m < n - f" `Quick (fun () ->
        let small = Input_complex.simplex_of_inputs [ (0, 0) ] in
        let c = Async_complex.one_round ~n:2 ~f:1 small in
        Alcotest.(check bool) "empty" true (Complex.is_empty c));
    Alcotest.test_case "Lemma 12: connectivity grid" `Quick (fun () ->
        List.iter
          (fun (n, f, r) ->
            let c = Async_complex.rounds ~n ~f ~r (input_simplex n) in
            let expected = Async_complex.lemma12_expected_connectivity ~m:n ~n ~f in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d f=%d r=%d" n f r)
              true
              (Homology.is_k_connected c expected))
          [ (1, 1, 1); (2, 1, 1); (2, 2, 1); (2, 1, 2); (2, 2, 2); (3, 1, 1) ]);
    Alcotest.test_case "Lemma 12 on faces: P(S^m) connectivity" `Quick (fun () ->
        (* m = 2, n = 3, f = 2: expected (m - (n - f) - 1) = 0-connected *)
        let face = Input_complex.simplex_of_inputs [ (0, 0); (1, 1); (2, 0) ] in
        let c = Async_complex.one_round ~n:3 ~f:2 face in
        Alcotest.(check bool) "0-connected" true (Homology.is_k_connected c 0));
    Alcotest.test_case "A^0 is the solid input simplex" `Quick (fun () ->
        let s = input_simplex 2 in
        Alcotest.(check bool) "equal" true
          (Complex.equal (Async_complex.rounds ~n:2 ~f:1 ~r:0 s) (Complex.of_simplex s)));
    Alcotest.test_case "over_inputs unions facets" `Quick (fun () ->
        let ic = Input_complex.make ~n:1 ~values:[ 0; 1 ] in
        let c = Async_complex.over_inputs ~n:1 ~f:1 ~r:1 ic in
        (* contains the one-round complex of each input edge *)
        List.iter
          (fun (a, b) ->
            let s = Input_complex.simplex_of_inputs [ (0, a); (1, b) ] in
            Alcotest.(check bool) "subcomplex" true
              (Complex.subcomplex (Async_complex.one_round ~n:1 ~f:1 s) c))
          [ (0, 0); (0, 1); (1, 0); (1, 1) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Synchronous complexes (Section 7)                                   *)
(* ------------------------------------------------------------------ *)

let sync_tests =
  let s2 = input_simplex 2 in
  [
    Alcotest.test_case "Lemma 14: explicit iso (grid)" `Quick (fun () ->
        List.iter
          (fun (n, ks) ->
            let s = input_simplex n in
            List.iter
              (fun k ->
                Alcotest.(check bool)
                  (Printf.sprintf "n=%d |K|=%d" n (Pid.Set.cardinal k))
                  true (Sync_complex.lemma14_holds s k))
              ks)
          [
            (1, [ Pid.Set.empty; Pid.Set.singleton 0 ]);
            (2, [ Pid.Set.empty; Pid.Set.singleton 2; Pid.Set.of_list [ 0; 1 ] ]);
            (3, [ Pid.Set.singleton 1; Pid.Set.of_list [ 1; 3 ] ]);
          ]);
    Alcotest.test_case "Figure 3: one-round one-faulty 3-process complex" `Quick
      (fun () ->
        let c = Sync_complex.one_round ~k:1 s2 in
        (* 3 fully-heard vertices + 6 partial = 9; failure-free triangle *)
        Alcotest.(check (list int)) "f" [ 9; 12; 1 ] (Array.to_list (Complex.f_vector c));
        Alcotest.(check int) "conn (Lemma 16)" 0 (Homology.connectivity ~cap:0 c));
    Alcotest.test_case "S^1_K is a pseudosphere of the right size" `Quick (fun () ->
        let c = Sync_complex.one_round_failing s2 (Pid.Set.singleton 2) in
        (* psi(edge; 2^{K}): 2 survivors x 2 options *)
        Alcotest.(check (list int)) "f" [ 4; 4 ] (Array.to_list (Complex.f_vector c)));
    Alcotest.test_case "S^1 equals enumerated executions" `Quick (fun () ->
        List.iter
          (fun (n, k) ->
            let formula = Sync_complex.one_round ~k (input_simplex n) in
            let enumerated = Enumerated.sync ~k ~r:1 (inputs n) in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d k=%d" n k)
              true
              (Complex.equal formula enumerated))
          [ (1, 1); (2, 1); (2, 2); (3, 1) ]);
    Alcotest.test_case "S^2 equals enumerated executions" `Quick (fun () ->
        let formula = Sync_complex.rounds ~k:1 ~r:2 s2 in
        let enumerated = Enumerated.sync ~k:1 ~r:2 (inputs 2) in
        Alcotest.(check bool) "equal" true (Complex.equal formula enumerated));
    Alcotest.test_case "Lemma 15 on S^3 (every prefix, k<=1)" `Quick (fun () ->
        let s3 = input_simplex 3 in
        let all_k = Failure.subsets_of_size_at_most (Pid.Set.of_list [ 0; 1; 2; 3 ]) 1 in
        let rec prefixes acc = function
          | [] -> []
          | k :: rest -> List.rev (k :: acc) :: prefixes (k :: acc) rest
        in
        List.iter
          (fun prefix ->
            if List.length prefix >= 2 then
              Alcotest.(check bool)
                (Printf.sprintf "prefix of %d" (List.length prefix))
                true
                (Sync_complex.lemma15_holds s3 prefix))
          (prefixes [] all_k));
    Alcotest.test_case "Lemma 15: intersection identity (all prefixes)" `Quick
      (fun () ->
        let all_k = Failure.subsets_of_size_at_most (Pid.Set.of_list [ 0; 1; 2 ]) 2 in
        let rec prefixes acc = function
          | [] -> []
          | k :: rest -> (List.rev (k :: acc)) :: prefixes (k :: acc) rest
        in
        List.iter
          (fun prefix ->
            if List.length prefix >= 2 then
              Alcotest.(check bool)
                (Printf.sprintf "prefix of %d" (List.length prefix))
                true
                (Sync_complex.lemma15_holds s2 prefix))
          (prefixes [] all_k));
    Alcotest.test_case "Lemma 16: one-round connectivity grid" `Quick (fun () ->
        List.iter
          (fun (n, k) ->
            let c = Sync_complex.one_round ~k (input_simplex n) in
            let expected = Sync_complex.lemma16_expected_connectivity ~m:n ~n ~k in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d k=%d" n k)
              true
              (Homology.is_k_connected c expected))
          [ (2, 1); (3, 1); (4, 1); (4, 2); (5, 2) ]);
    Alcotest.test_case "Lemma 17: r-round connectivity" `Quick (fun () ->
        (* n = 2, k = 1, r = 1 satisfies n >= rk + k *)
        let c = Sync_complex.rounds ~k:1 ~r:1 s2 in
        Alcotest.(check bool) "r=1" true (Homology.is_k_connected c 0);
        (* r = 2 needs n >= 3: S^2(S^2) is disconnected *)
        let c2 = Sync_complex.rounds ~k:1 ~r:2 s2 in
        Alcotest.(check bool) "r=2 disconnected" false (Homology.is_k_connected c2 0));
    Alcotest.test_case "Theorem 18 bound values" `Quick (fun () ->
        Alcotest.(check int) "n=3 f=1 k=1" 2 (Sync_complex.theorem18_lower_bound ~n:3 ~f:1 ~k:1);
        Alcotest.(check int) "n=5 f=2 k=1" 3 (Sync_complex.theorem18_lower_bound ~n:5 ~f:2 ~k:1);
        Alcotest.(check int) "n=5 f=2 k=2" 2 (Sync_complex.theorem18_lower_bound ~n:5 ~f:2 ~k:2);
        Alcotest.(check int) "n=2 f=1 k=1 (n <= f+k)" 1
          (Sync_complex.theorem18_lower_bound ~n:2 ~f:1 ~k:1);
        Alcotest.(check int) "n=4 f=3 k=2" 1 (Sync_complex.theorem18_lower_bound ~n:4 ~f:3 ~k:2));
    Alcotest.test_case "pseudospheres decomposition realizes one_round" `Quick
      (fun () ->
        let pss = Sync_complex.pseudospheres ~k:1 s2 in
        Alcotest.(check int) "count" 4 (List.length pss);
        let union =
          List.fold_left
            (fun acc (_, ps) -> Complex.union acc (Psph.realize ps))
            Complex.empty pss
        in
        (* intrinsic-label union has the same shape as the view-label
           complex *)
        Alcotest.(check bool) "iso" true
          (Simplicial_map.are_isomorphic union (Sync_complex.one_round ~k:1 s2)));
  ]

(* ------------------------------------------------------------------ *)
(* Semi-synchronous complexes (Section 8)                              *)
(* ------------------------------------------------------------------ *)

let semi_tests =
  let s2 = input_simplex 2 in
  [
    Alcotest.test_case "Lemma 19: explicit iso (grid)" `Quick (fun () ->
        List.iter
          (fun (n, p, pat) ->
            Alcotest.(check bool)
              (Printf.sprintf "n=%d p=%d" n p)
              true
              (Semi_sync_complex.lemma19_holds ~p ~n (input_simplex n) pat))
          [
            (1, 2, Failure.pattern []);
            (1, 2, Failure.pattern [ (1, 1) ]);
            (2, 2, Failure.pattern [ (2, 1) ]);
            (2, 2, Failure.pattern [ (2, 2) ]);
            (2, 3, Failure.pattern [ (0, 2) ]);
            (2, 2, Failure.pattern [ (1, 1); (2, 2) ]);
          ]);
    Alcotest.test_case "M^1_{K,F} is psi(S\\K; [F]): sizes" `Quick (fun () ->
        let pat = Failure.pattern [ (2, 1) ] in
        let c = Semi_sync_complex.one_round_pattern ~p:2 ~n:2 s2 pat in
        (* 2 survivors x |[F]| = 2 choices *)
        Alcotest.(check (list int)) "f" [ 4; 4 ] (Array.to_list (Complex.f_vector c)));
    Alcotest.test_case "M^1 equals enumerated executions" `Quick (fun () ->
        List.iter
          (fun (n, k, p) ->
            let formula = Semi_sync_complex.one_round ~k ~p ~n (input_simplex n) in
            let enumerated = Enumerated.semi ~k ~p ~n ~r:1 (inputs n) in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d k=%d p=%d" n k p)
              true
              (Complex.equal formula enumerated))
          [ (1, 1, 2); (2, 1, 2); (2, 1, 3); (2, 2, 2) ]);
    Alcotest.test_case "M^2 equals enumerated executions" `Quick (fun () ->
        let formula = Semi_sync_complex.rounds ~k:1 ~p:2 ~n:1 ~r:2 (input_simplex 1) in
        let enumerated = Enumerated.semi ~k:1 ~p:2 ~n:1 ~r:2 (inputs 1) in
        Alcotest.(check bool) "equal" true (Complex.equal formula enumerated));
    Alcotest.test_case "Lemma 20: intersection identity (ordered prefixes)" `Quick
      (fun () ->
        let pats =
          Semi_sync_complex.pseudospheres ~k:1 ~p:2 ~n:2 s2 |> List.map fst
        in
        Alcotest.(check int) "7 pseudospheres" 7 (List.length pats);
        let rec prefixes acc = function
          | [] -> []
          | x :: rest -> (List.rev (x :: acc)) :: prefixes (x :: acc) rest
        in
        List.iter
          (fun prefix ->
            if List.length prefix >= 2 then
              Alcotest.(check bool)
                (Printf.sprintf "prefix of %d" (List.length prefix))
                true
                (Semi_sync_complex.lemma20_holds ~p:2 ~n:2 s2 prefix))
          (prefixes [] pats));
    Alcotest.test_case "Lemma 20 at p=3 (every ordered prefix)" `Quick (fun () ->
        let s2 = input_simplex 2 in
        let pats =
          Semi_sync_complex.pseudospheres ~k:1 ~p:3 ~n:2 s2 |> List.map fst
        in
        let rec prefixes acc = function
          | [] -> []
          | x :: rest -> List.rev (x :: acc) :: prefixes (x :: acc) rest
        in
        List.iter
          (fun prefix ->
            if List.length prefix >= 2 then
              Alcotest.(check bool)
                (Printf.sprintf "prefix of %d" (List.length prefix))
                true
                (Semi_sync_complex.lemma20_holds ~p:3 ~n:2 s2 prefix))
          (prefixes [] pats));
    Alcotest.test_case "Lemma 21: connectivity grid" `Quick (fun () ->
        List.iter
          (fun (n, k, p, r) ->
            let c = Semi_sync_complex.rounds ~k ~p ~n ~r (input_simplex n) in
            let expected = Semi_sync_complex.lemma21_expected_connectivity ~m:n ~n ~k in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d k=%d p=%d r=%d" n k p r)
              true
              (Homology.is_k_connected c expected))
          [ (2, 1, 2, 1); (3, 1, 2, 1); (2, 1, 3, 1); (4, 2, 2, 1) ];
        (* hypothesis n >= (r+1)k is necessary: the wait-free 2-process
           one-round complex is disconnected (consensus impossible) *)
        let c = Semi_sync_complex.rounds ~k:1 ~p:2 ~n:1 ~r:1 (input_simplex 1) in
        Alcotest.(check bool) "n=1 k=1 r=1 disconnected" false
          (Homology.is_k_connected c 0));
    Alcotest.test_case "Corollary 22 time values" `Quick (fun () ->
        (* f = 2, k = 1, C = 2, d = 10: r = ceil(2/1) - 1 = 1 -> 10 + 20 *)
        Alcotest.(check (float 0.001)) "f2k1" 30.0
          (Semi_sync_complex.corollary22_time ~f:2 ~k:1 ~c1:1 ~c2:2 ~d:10);
        (* f = 3, k = 2: r = ceil(3/2) - 1 = 1 -> d + Cd *)
        Alcotest.(check (float 0.001)) "f3k2" 30.0
          (Semi_sync_complex.corollary22_time ~f:3 ~k:2 ~c1:1 ~c2:2 ~d:10);
        (* C = 1 (synchronous limit): bound degenerates to r*d + d *)
        Alcotest.(check (float 0.001)) "sync limit" 20.0
          (Semi_sync_complex.corollary22_time ~f:2 ~k:1 ~c1:1 ~c2:1 ~d:10));
    Alcotest.test_case "microround counts agree with simulator" `Quick (fun () ->
        let cfg = { Sim.c1 = 1; c2 = 2; d = 3 } in
        Alcotest.(check int) "p" 3 (Sim.microrounds cfg));
  ]

(* ------------------------------------------------------------------ *)
(* Mayer-Vietoris engine                                               *)
(* ------------------------------------------------------------------ *)

let mv_tests =
  let s2 = input_simplex 2 in
  [
    Alcotest.test_case "single pseudosphere axiom" `Quick (fun () ->
        let ps = Psph.binary 2 in
        let proof = Mayer_vietoris.union_connectivity [ ps ] in
        Alcotest.(check int) "conn" 1 (Mayer_vietoris.conn proof);
        Alcotest.(check bool) "valid" true (Mayer_vietoris.validate [ ps ] proof));
    Alcotest.test_case "empty list" `Quick (fun () ->
        Alcotest.(check int) "conn" (-2)
          (Mayer_vietoris.conn (Mayer_vietoris.union_connectivity [])));
    Alcotest.test_case "disjoint pseudospheres" `Quick (fun () ->
        let b0 = Simplex.of_procs [ (0, Label.Unit) ] in
        let b1 = Simplex.of_procs [ (1, Label.Unit) ] in
        let p0 = Psph.uniform ~base:b0 [ Label.Int 0 ] in
        let p1 = Psph.uniform ~base:b1 [ Label.Int 0 ] in
        let proof = Mayer_vietoris.union_connectivity [ p0; p1 ] in
        Alcotest.(check int) "conn" (-1) (Mayer_vietoris.conn proof);
        Alcotest.(check bool) "valid" true (Mayer_vietoris.validate [ p0; p1 ] proof));
    Alcotest.test_case "sync S^1 derivation matches Lemma 16" `Quick (fun () ->
        List.iter
          (fun (n, k) ->
            let s = input_simplex n in
            let pss = List.map snd (Sync_complex.pseudospheres ~k s) in
            let proof = Mayer_vietoris.union_connectivity pss in
            let claimed = Sync_complex.lemma16_expected_connectivity ~m:n ~n ~k in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d k=%d: derived >= claimed" n k)
              true
              (Mayer_vietoris.conn proof >= claimed);
            Alcotest.(check bool)
              (Printf.sprintf "n=%d k=%d: numerically valid" n k)
              true
              (Mayer_vietoris.validate pss proof))
          [ (2, 1); (3, 1); (4, 2) ]);
    Alcotest.test_case "semi-sync M^1 derivation matches Lemma 21" `Quick (fun () ->
        let pss = List.map snd (Semi_sync_complex.pseudospheres ~k:1 ~p:2 ~n:2 s2) in
        let proof = Mayer_vietoris.union_connectivity pss in
        Alcotest.(check bool) "derived >= 0" true (Mayer_vietoris.conn proof >= 0);
        Alcotest.(check bool) "valid" true (Mayer_vietoris.validate pss proof));
    Alcotest.test_case "async A^1 is a single axiom" `Quick (fun () ->
        let ps = Async_complex.pseudosphere ~n:2 ~f:1 s2 in
        let proof = Mayer_vietoris.union_connectivity [ ps ] in
        Alcotest.(check int) "conn = dim - 1" 1 (Mayer_vietoris.conn proof);
        Alcotest.(check int) "one axiom" 1 (Mayer_vietoris.size proof));
    Alcotest.test_case "derived bounds are sound on random unions" `Quick (fun () ->
        (* soundness: derived conn never exceeds homological connectivity *)
        let base = Simplex.proc_simplex 2 in
        let mk vals = Psph.create ~base ~values:(fun p -> List.nth vals p) in
        let i n = Label.Int n in
        let unions =
          [
            [ mk [ [ i 0; i 1 ]; [ i 0 ]; [ i 0; i 1 ] ];
              mk [ [ i 1; i 2 ]; [ i 0; i 1 ]; [ i 1 ] ] ];
            [ mk [ [ i 0 ]; [ i 0; i 1 ]; [ i 2 ] ];
              mk [ [ i 1 ]; [ i 1 ]; [ i 2 ] ];
              mk [ [ i 0; i 1 ]; [ i 0; i 1 ]; [ i 2; i 3 ] ] ];
          ]
        in
        List.iter
          (fun pss ->
            let proof = Mayer_vietoris.union_connectivity pss in
            Alcotest.(check bool) "sound" true (Mayer_vietoris.validate pss proof))
          unions);
    Alcotest.test_case "proof pretty-printer emits Thm2 steps" `Quick (fun () ->
        let pss = List.map snd (Sync_complex.pseudospheres ~k:1 s2) in
        let proof = Mayer_vietoris.union_connectivity pss in
        let text = Format.asprintf "%a" Mayer_vietoris.pp proof in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
          scan 0
        in
        Alcotest.(check bool) "mentions Thm2" true (contains text "Thm2");
        Alcotest.(check bool) "mentions Cor6" true (contains text "Cor6"));
  ]

let suites =
  [
    ("core.pseudosphere", psph_tests);
    ("core.async", async_tests);
    ("core.sync", sync_tests);
    ("core.semi_sync", semi_tests);
    ("core.mayer_vietoris", mv_tests);
  ]
