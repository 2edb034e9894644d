(* Tests for output complexes, carrier-preserving simplicial maps, plus
   extra property coverage for the pseudosphere algebra and serialization. *)

open Psph_topology
open Psph_model
open Pseudosphere
open Psph_agreement

let input_simplex n =
  Input_complex.simplex_of_inputs (List.init (n + 1) (fun i -> (i, i mod 2)))

(* ------------------------------------------------------------------ *)
(* Output complexes                                                    *)
(* ------------------------------------------------------------------ *)

let output_tests =
  [
    Alcotest.test_case "consensus output = disjoint monochrome simplices" `Quick
      (fun () ->
        let o = Carrier_map.consensus_output ~n:2 ~values:[ 0; 1 ] in
        Alcotest.(check (list int)) "f" [ 6; 6; 2 ] (Array.to_list (Complex.f_vector o));
        Alcotest.(check int) "two components" 2
          (List.length (Complex.connected_components o)));
    Alcotest.test_case "2-set output is connected" `Quick (fun () ->
        let o = Carrier_map.kset_output ~n:2 ~k:2 ~values:[ 0; 1; 2 ] in
        Alcotest.(check bool) "connected" true (Complex.is_connected o);
        (* every facet carries at most 2 distinct values *)
        List.iter
          (fun s ->
            let vals =
              Simplex.labels s |> List.map Value.of_label
              |> Value.Set.of_list |> Value.Set.cardinal
            in
            Alcotest.(check bool) "<=2" true (vals <= 2))
          (Complex.facets o));
    Alcotest.test_case "output complexes are chromatic" `Quick (fun () ->
        let o = Carrier_map.kset_output ~n:3 ~k:2 ~values:[ 0; 1 ] in
        List.iter
          (fun s -> Alcotest.(check bool) "chromatic" true (Simplex.is_chromatic s))
          (Complex.facets o));
    Alcotest.test_case "n-set output with n+1 values is the full pseudosphere" `Quick
      (fun () ->
        let o = Carrier_map.kset_output ~n:1 ~k:2 ~values:[ 0; 1 ] in
        let ps = Input_complex.plain ~n:1 ~values:[ 0; 1 ] in
        Alcotest.(check bool) "equal" true (Complex.equal o ps));
  ]

(* ------------------------------------------------------------------ *)
(* Carrier-map search                                                  *)
(* ------------------------------------------------------------------ *)

let carrier_tests =
  [
    Alcotest.test_case "solve, solve_general and the carrier map agree on k-set"
      `Quick (fun () ->
        (* the three constraints of the one search, on one grid: the same
           verdict, and every witness valid for its own task *)
        let verdict = function
          | Decision.Solution _ -> `S
          | Decision.Impossible -> `I
          | Decision.Unknown -> `U
        in
        List.iter
          (fun (name, n, k, values, complex) ->
            let task = Task.kset ~n ~k ~values in
            let valid = function
              | Decision.Solution m ->
                  Alcotest.(check bool) (name ^ ": valid decision map") true
                    (Task.valid_decision_map task complex (fun v ->
                         Vertex.Map.find v m))
              | _ -> ()
            in
            let kset = Decision.solve ~complex ~allowed:Task.allowed ~k () in
            let general =
              Decision.solve_general ~complex ~domains:Task.allowed
                ~partial_ok:(Decision.kset_constraint k) ()
            in
            let output = Carrier_map.kset_output ~n ~k ~values in
            let carrier = Carrier_map.solve ~complex ~output ~carrier:Task.allowed () in
            Alcotest.(check bool) (name ^ ": solve_general = solve") true
              (verdict general = verdict kset);
            Alcotest.(check bool) (name ^ ": carrier map = solve") true
              (verdict carrier = verdict kset);
            valid kset;
            valid general;
            match carrier with
            | Decision.Solution m ->
                List.iter
                  (fun facet ->
                    let image =
                      List.map (fun v -> Vertex.Map.find v m) (Simplex.vertices facet)
                    in
                    Alcotest.(check bool) (name ^ ": facet image in output") true
                      (Complex.mem (Simplex.of_list image) output))
                  (Complex.facets complex)
            | _ -> ())
          (List.map
             (fun (n, f, k, values) ->
               ( Printf.sprintf "async n=%d f=%d k=%d" n f k,
                 n, k, values,
                 Async_complex.over_inputs ~n ~f ~r:1 (Input_complex.make ~n ~values) ))
             [
               (2, 1, 1, [ 0; 1 ]); (2, 2, 2, [ 0; 1; 2 ]); (2, 1, 2, [ 0; 1; 2 ]);
               (1, 1, 1, [ 0; 1 ]);
             ]
          @ [
              ( "sync n=2 r=2 consensus", 2, 1, [ 0; 1 ],
                Sync_complex.over_inputs ~k:1 ~r:2
                  (Input_complex.make ~n:2 ~values:[ 0; 1 ]) );
            ]));
    Alcotest.test_case "solutions are simplicial and carrier-preserving" `Quick
      (fun () ->
        let values = [ 0; 1; 2 ] in
        let ic = Input_complex.make ~n:2 ~values in
        let c = Async_complex.over_inputs ~n:2 ~f:1 ~r:1 ic in
        let output = Carrier_map.kset_output ~n:2 ~k:2 ~values in
        match Carrier_map.solve ~complex:c ~output ~carrier:Task.allowed () with
        | Decision.Solution m ->
            let mu v = Option.value ~default:v (Vertex.Map.find_opt v m) in
            Alcotest.(check bool) "simplicial" true
              (Simplicial_map.is_simplicial mu c output);
            Vertex.Map.iter
              (fun v w ->
                Alcotest.(check bool) "colour-preserving" true
                  (Vertex.pid v = Vertex.pid w);
                match w with
                | Vertex.Proc (_, l) ->
                    Alcotest.(check bool) "carrier" true
                      (List.mem (Value.of_label l) (Task.allowed v))
                | _ -> Alcotest.fail "bad output vertex")
              m
        | _ -> Alcotest.fail "expected a map");
    Alcotest.test_case "sync consensus at r=2 has a carrier map" `Quick (fun () ->
        let values = [ 0; 1 ] in
        let ic = Input_complex.make ~n:2 ~values in
        let c = Sync_complex.over_inputs ~k:1 ~r:2 ic in
        let output = Carrier_map.consensus_output ~n:2 ~values in
        match Carrier_map.solve ~complex:c ~output ~carrier:Task.allowed () with
        | Decision.Solution _ -> ()
        | _ -> Alcotest.fail "expected a map");
    Alcotest.test_case "IIS consensus has no carrier map (ACT direction)" `Quick
      (fun () ->
        let values = [ 0; 1 ] in
        let ic = Input_complex.make ~n:1 ~values in
        let c = Iis_complex.over_inputs ~r:1 ic in
        let output = Carrier_map.consensus_output ~n:1 ~values in
        Alcotest.(check bool) "impossible" true
          (Carrier_map.solve ~complex:c ~output ~carrier:Task.allowed ()
          = Decision.Impossible));
    Alcotest.test_case "empty budget reports Unknown" `Quick (fun () ->
        let values = [ 0; 1 ] in
        let ic = Input_complex.make ~n:1 ~values in
        let c = Iis_complex.over_inputs ~r:1 ic in
        let output = Carrier_map.consensus_output ~n:1 ~values in
        Alcotest.(check bool) "unknown" true
          (Carrier_map.solve ~budget:2 ~complex:c ~output ~carrier:Task.allowed ()
          = Decision.Unknown));
  ]

(* ------------------------------------------------------------------ *)
(* Random pseudosphere algebra (Lemma 4 as properties)                 *)
(* ------------------------------------------------------------------ *)

let gen_psph =
  QCheck2.Gen.(
    let* n = int_range 0 2 in
    let* value_sizes = list_repeat (n + 1) (int_range 0 3) in
    let base = Simplex.proc_simplex n in
    return
      (Psph.create ~base ~values:(fun p ->
           List.init (List.nth value_sizes p) (fun i -> Label.Int i))))

let psph_props =
  let open QCheck2 in
  [
    Test.make ~count:60 ~name:"realized facet count matches closed form" gen_psph
      (fun ps ->
        List.length (Complex.facets (Psph.realize ps)) = Psph.facet_count ps
        || Psph.is_empty ps);
    Test.make ~count:60 ~name:"simplex count matches closed form" gen_psph
      (fun ps -> Complex.num_simplices (Psph.realize ps) = Psph.simplex_count ps);
    Test.make ~count:60 ~name:"Cor 6 as a property" gen_psph (fun ps ->
        Homology.is_k_connected (Psph.realize ps) (Psph.connectivity_bound ps));
    Test.make ~count:40 ~name:"Lemma 4.3 as a property" (Gen.pair gen_psph gen_psph)
      (fun (a, b) ->
        (* only comparable when built over the same base dimension *)
        Simplex.dim (Psph.base a) <> Simplex.dim (Psph.base b)
        || Complex.equal
             (Complex.inter (Psph.realize a) (Psph.realize b))
             (Psph.realize (Psph.inter a b)));
    Test.make ~count:60 ~name:"inter is idempotent" gen_psph (fun ps ->
        Psph.equal (Psph.inter ps ps) ps);
    Test.make ~count:60 ~name:"normalize preserves the realization" gen_psph
      (fun ps -> Complex.equal (Psph.realize ps) (Psph.realize (Psph.normalize ps)));
    Test.make ~count:60 ~name:"subsumption is reflexive" gen_psph (fun ps ->
        Psph.subsumes ps ps);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Serialization round-trip property                                   *)
(* ------------------------------------------------------------------ *)

let io_props =
  let open QCheck2 in
  let gen_complex =
    Gen.(
      let facet = list_size (int_range 1 4) (int_range 0 6) in
      list_size (int_range 1 6) facet
      |> map (fun fs ->
             Complex.of_facets
               (List.map (fun l -> Simplex.of_list (List.map Vertex.anon l)) fs)))
  in
  [
    Test.make ~count:80 ~name:"complex serialization round-trips" gen_complex
      (fun c ->
        Complex.equal c (Complex_io.complex_of_string (Complex_io.complex_to_string c)));
    Test.make ~count:80 ~name:"pseudosphere serialization round-trips" gen_psph
      (fun ps ->
        let c = Psph.realize ps in
        Complex.equal c (Complex_io.complex_of_string (Complex_io.complex_to_string c)));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let integration_tests =
  [
    Alcotest.test_case "carrier map on the one-round sync complex" `Quick
      (fun () ->
        (* Theorem 18 via carrier maps: no consensus map at r = 1 *)
        let values = [ 0; 1 ] in
        let ic = Input_complex.make ~n:2 ~values in
        let c = Sync_complex.over_inputs ~k:1 ~r:1 ic in
        let output = Carrier_map.consensus_output ~n:2 ~values in
        Alcotest.(check bool) "impossible" true
          (Carrier_map.solve ~complex:c ~output ~carrier:Task.allowed ()
          = Decision.Impossible));
    Alcotest.test_case "input simplex of mixed values" `Quick (fun () ->
        let s = input_simplex 3 in
        Alcotest.(check int) "dim" 3 (Simplex.dim s);
        Alcotest.(check bool) "chromatic" true (Simplex.is_chromatic s));
  ]

let suites =
  [
    ("agreement.output_complex", output_tests);
    ("agreement.carrier_map", carrier_tests);
    ("core.psph_properties", psph_props);
    ("topology.io_properties", io_props);
    ("agreement.carrier_integration", integration_tests);
  ]
