(* Tests for the second extension wave: Theorem 5/7 checkers, the knowledge
   layer, the generalized decision search, and complex serialization. *)

open Psph_topology
open Psph_model
open Pseudosphere
open Psph_agreement

let input_simplex n =
  Input_complex.simplex_of_inputs (List.init (n + 1) (fun i -> (i, i mod 2)))

let init_label v = View.to_label (View.init v)

(* ------------------------------------------------------------------ *)
(* Theorems 5 and 7                                                    *)
(* ------------------------------------------------------------------ *)

let theorem_tests =
  [
    Alcotest.test_case "Theorem 5 on the async operator (n=2 f=1, c=1)" `Quick
      (fun () ->
        (* A^1 sends S^l to an (l - (n - f) - 1)-connected complex, so
           c = n - f = 1 *)
        let inst =
          Connectivity_theorems.check_theorem5
            ~op:(Async_complex.one_round ~n:2 ~f:1)
            ~c:1 ~base:(input_simplex 2)
            ~values:(fun _ -> [ init_label 0; init_label 1 ])
        in
        Alcotest.(check bool) "hypothesis" true inst.Connectivity_theorems.hypothesis_holds;
        Alcotest.(check bool) "conclusion" true inst.Connectivity_theorems.conclusion_holds;
        Alcotest.(check int) "faces" 7 inst.Connectivity_theorems.faces_checked);
    Alcotest.test_case "Theorem 5 on the async operator (n=2 f=2, c=0)" `Quick
      (fun () ->
        let inst =
          Connectivity_theorems.check_theorem5
            ~op:(Async_complex.one_round ~n:2 ~f:2)
            ~c:0 ~base:(input_simplex 2)
            ~values:(fun _ -> [ init_label 0; init_label 1 ])
        in
        Alcotest.(check bool) "holds" true (Connectivity_theorems.holds inst);
        Alcotest.(check bool) "hypothesis" true inst.Connectivity_theorems.hypothesis_holds);
    Alcotest.test_case "Theorem 5 with the identity operator is Corollary 6" `Quick
      (fun () ->
        let identity s = Complex.of_simplex s in
        let inst =
          Connectivity_theorems.check_theorem5 ~op:identity ~c:0
            ~base:(input_simplex 2)
            ~values:(fun _ -> [ init_label 0; init_label 1; init_label 2 ])
        in
        Alcotest.(check bool) "hypothesis" true inst.Connectivity_theorems.hypothesis_holds;
        Alcotest.(check bool) "conclusion" true inst.Connectivity_theorems.conclusion_holds);
    Alcotest.test_case "Theorem 7 on unions with common intersection" `Quick
      (fun () ->
        let identity s = Complex.of_simplex s in
        let inst =
          Connectivity_theorems.check_theorem7 ~op:identity ~c:0
            ~base:(input_simplex 2)
            ~families:
              [ [ init_label 0; init_label 1 ]; [ init_label 0; init_label 2 ] ]
        in
        Alcotest.(check bool) "holds" true (Connectivity_theorems.holds inst));
    Alcotest.test_case "Theorem 7 rejects empty intersections" `Quick (fun () ->
        let identity s = Complex.of_simplex s in
        Alcotest.check_raises "raises"
          (Invalid_argument "Connectivity_theorems.check_theorem7: empty common intersection")
          (fun () ->
            ignore
              (Connectivity_theorems.check_theorem7 ~op:identity ~c:0
                 ~base:(input_simplex 1)
                 ~families:[ [ init_label 0 ]; [ init_label 1 ] ])));
    Alcotest.test_case "implication is vacuous when the hypothesis fails" `Quick
      (fun () ->
        (* an operator returning a disconnected complex on edges *)
        let bad s =
          if Simplex.dim s >= 1 then
            Complex.of_facets
              (List.map (fun v -> Simplex.of_list [ v ]) (Simplex.vertices s))
          else Complex.of_simplex s
        in
        let inst =
          Connectivity_theorems.check_theorem5 ~op:bad ~c:0 ~base:(input_simplex 1)
            ~values:(fun _ -> [ init_label 0; init_label 1 ])
        in
        Alcotest.(check bool) "hypothesis fails" false
          inst.Connectivity_theorems.hypothesis_holds;
        Alcotest.(check bool) "holds vacuously" true (Connectivity_theorems.holds inst));
  ]

(* ------------------------------------------------------------------ *)
(* Knowledge                                                           *)
(* ------------------------------------------------------------------ *)

let knowledge_tests =
  let inputs = [ (0, 0); (1, 1); (2, 1) ] in
  let s = Input_complex.simplex_of_inputs inputs in
  let c1 = Sync_complex.one_round ~k:1 s in
  [
    Alcotest.test_case "after hearing everyone, P0's value is known" `Quick
      (fun () ->
        (* the all-heard vertex of P1 knows value 0 is present *)
        let all_heard_p1 =
          List.find
            (fun v ->
              Vertex.pid v = Some 1
              && match v with
                 | Vertex.Proc (_, l) ->
                     Pid.Set.cardinal (View.heard_pids (View.of_label l)) = 3
                 | _ -> false)
            (Complex.vertices c1)
        in
        Alcotest.(check bool) "knows" true
          (Knowledge.knows c1 all_heard_p1 (Knowledge.fact_value_present 0)));
    Alcotest.test_case "a process that missed P0 does not know its value is kept"
      `Quick (fun () ->
        (* P1 hearing only {P1, P2}: in some compatible global states P0's
           value 0 survives only at P0 (failed) -- P1 cannot know that some
           LIVE process has seen it.  Here the weaker fact below is about
           presence in the global state, which P1 does know is possible but
           not guaranteed once P0's vertex is gone. *)
        let p1_missed_p0 =
          List.find
            (fun v ->
              Vertex.pid v = Some 1
              && match v with
                 | Vertex.Proc (_, l) ->
                     let h = View.heard_pids (View.of_label l) in
                     Pid.Set.equal h (Pid.Set.of_list [ 1; 2 ])
                 | _ -> false)
            (Complex.vertices c1)
        in
        Alcotest.(check bool) "does not know" false
          (Knowledge.knows c1 p1_missed_p0 (Knowledge.fact_value_present 0)));
    Alcotest.test_case "everyone_knows is stronger than knows" `Quick (fun () ->
        let fact = Knowledge.fact_value_present 1 in
        List.iter
          (fun facet ->
            if Knowledge.everyone_knows c1 facet fact then
              List.iter
                (fun v -> Alcotest.(check bool) "each knows" true (Knowledge.knows c1 v fact))
                (Simplex.vertices facet))
          (Complex.facets c1));
    Alcotest.test_case "E^k weakens as k grows" `Quick (fun () ->
        let fact = Knowledge.fact_value_present 1 in
        let e1 = Knowledge.iterate_everyone_knows c1 1 fact in
        let e2 = Knowledge.iterate_everyone_knows c1 2 fact in
        List.iter
          (fun facet ->
            if e2 facet then Alcotest.(check bool) "E2 -> E1" true (e1 facet))
          (Complex.facets c1));
    Alcotest.test_case "common knowledge on a connected complex needs global truth"
      `Quick (fun () ->
        (* value 0 is absent from some global states (P0 crashed unheard),
           and S^1 is connected: so value-0-presence is nowhere common
           knowledge *)
        Alcotest.(check bool) "connected" true (Complex.is_connected c1);
        let fact = Knowledge.fact_value_present 0 in
        List.iter
          (fun facet ->
            Alcotest.(check bool) "not common" false
              (Knowledge.common_knowledge_at c1 facet fact))
          (Complex.facets c1));
    Alcotest.test_case "a universally true fact is common knowledge" `Quick
      (fun () ->
        (* value 1 is held by both P1 and P2; one crash cannot erase it *)
        let fact = Knowledge.fact_value_present 1 in
        List.iter
          (fun facet ->
            Alcotest.(check bool) "common" true
              (Knowledge.common_knowledge_at c1 facet fact))
          (Complex.facets c1));
    Alcotest.test_case "component_facets spans the whole connected complex" `Quick
      (fun () ->
        match Complex.facets c1 with
        | facet :: _ ->
            Alcotest.(check int) "all facets" (List.length (Complex.facets c1))
              (List.length (Knowledge.component_facets c1 facet))
        | [] -> Alcotest.fail "no facets");
  ]

(* ------------------------------------------------------------------ *)
(* Generalized decision search                                         *)
(* ------------------------------------------------------------------ *)

let general_search_tests =
  [
    Alcotest.test_case "distinct_constraint: enough names succeed" `Quick (fun () ->
        (* assign pairwise distinct names per facet with a large namespace:
           trivially solvable by pid *)
        let c = Sync_complex.one_round ~k:1 (input_simplex 2) in
        let domains _ = [ 0; 1; 2 ] in
        match
          Decision.solve_general ~complex:c ~domains
            ~partial_ok:Decision.distinct_constraint ()
        with
        | Decision.Solution m ->
            (* verify distinctness on every facet *)
            List.iter
              (fun facet ->
                let names =
                  List.map (fun v -> Vertex.Map.find v m) (Simplex.vertices facet)
                in
                Alcotest.(check bool) "distinct" true
                  (List.length (List.sort_uniq Int.compare names) = List.length names))
              (Complex.facets c)
        | _ -> Alcotest.fail "expected solution");
    Alcotest.test_case "distinct_constraint: too few names fail" `Quick (fun () ->
        let c = Sync_complex.one_round ~k:1 (input_simplex 2) in
        let domains _ = [ 0; 1 ] in
        Alcotest.(check bool) "impossible" true
          (Decision.solve_general ~complex:c ~domains
             ~partial_ok:Decision.distinct_constraint ()
          = Decision.Impossible));
    Alcotest.test_case "leader election = consensus on seen pids" `Quick (fun () ->
        (* decide a participating pid, all agree: impossible on the 1-round
           async complex for the same connectivity reason as consensus *)
        let c =
          Async_complex.over_inputs ~n:2 ~f:1 ~r:1
            (Input_complex.make ~n:2 ~values:[ 0; 1 ])
        in
        let domains v =
          match v with
          | Vertex.Proc (_, l) ->
              Pid.Set.elements (View.seen_pids (View.of_label l))
          | _ -> []
        in
        Alcotest.(check bool) "impossible" true
          (Decision.solve_general ~complex:c ~domains
             ~partial_ok:(Decision.kset_constraint 1) ()
          = Decision.Impossible));
    Alcotest.test_case "budget exhaustion reports Unknown" `Quick (fun () ->
        let c = Sync_complex.one_round ~k:1 (input_simplex 2) in
        Alcotest.(check bool) "unknown" true
          (Decision.solve_general ~budget:2 ~complex:c ~domains:(fun _ -> [ 0; 1 ])
             ~partial_ok:(Decision.kset_constraint 1) ()
          = Decision.Unknown));
  ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let io_tests =
  let roundtrip_label l =
    Label.equal l (Complex_io.label_of_string (Complex_io.label_to_string l))
  in
  [
    Alcotest.test_case "label round-trips" `Quick (fun () ->
        List.iter
          (fun l -> Alcotest.(check bool) (Complex_io.label_to_string l) true (roundtrip_label l))
          [
            Label.Unit; Label.Bool true; Label.Bool false; Label.Int 42;
            Label.Int (-3); Label.Str "hello world"; Label.Str "with \"quotes\"";
            Label.Pid 5; Label.pid_set [ 0; 2; 4 ]; Label.Pid_set Pid.Set.empty;
            Label.Vec [| 1; 0; 2 |]; Label.Vec [||];
            Label.Pair (Label.Int 1, Label.pid_set [ 1 ]);
            Label.List [ Label.Unit; Label.Pair (Label.Pid 0, Label.Int 9) ];
            Label.List [];
          ]);
    Alcotest.test_case "vertex round-trips" `Quick (fun () ->
        List.iter
          (fun v ->
            Alcotest.(check bool) (Complex_io.vertex_to_string v) true
              (Vertex.equal v (Complex_io.vertex_of_string (Complex_io.vertex_to_string v))))
          [
            Vertex.anon 7;
            Vertex.proc 2 (Label.Int 5);
            Vertex.Bary [ Vertex.anon 0; Vertex.anon 1 ];
            Vertex.proc 0 (View.to_label (View.init 3));
          ]);
    Alcotest.test_case "simplex round-trips" `Quick (fun () ->
        let s = Simplex.of_procs [ (0, Label.Int 1); (1, Label.pid_set [ 0; 1 ]) ] in
        Alcotest.(check bool) "eq" true
          (Simplex.equal s (Complex_io.simplex_of_string (Complex_io.simplex_to_string s))));
    Alcotest.test_case "complexes round-trip (figures)" `Quick (fun () ->
        List.iter
          (fun c ->
            Alcotest.(check bool) "eq" true
              (Complex.equal c (Complex_io.complex_of_string (Complex_io.complex_to_string c))))
          [
            Psph.realize ~vertex:Psph.default_vertex (Psph.binary 2);
            Sync_complex.one_round ~k:1 (input_simplex 2);
            Constructions.sphere 2;
          ]);
    Alcotest.test_case "protocol complex with full views round-trips" `Quick
      (fun () ->
        let c = Async_complex.rounds ~n:1 ~f:1 ~r:2 (input_simplex 1) in
        Alcotest.(check bool) "eq" true
          (Complex.equal c (Complex_io.complex_of_string (Complex_io.complex_to_string c))));
    Alcotest.test_case "save and load" `Quick (fun () ->
        let c = Sync_complex.one_round ~k:1 (input_simplex 2) in
        let path = Filename.temp_file "psph" ".cx" in
        Complex_io.save path c;
        let c' = Complex_io.load path in
        Sys.remove path;
        Alcotest.(check bool) "eq" true (Complex.equal c c'));
    Alcotest.test_case "malformed input rejected" `Quick (fun () ->
        List.iter
          (fun text ->
            match Complex_io.label_of_string text with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail ("accepted: " ^ text))
          [ "x"; "(i1"; "i1 extra"; "P{1,"; "b:maybe" ]);
  ]

let suites =
  [
    ("ext2.theorems_5_7", theorem_tests);
    ("ext2.knowledge", knowledge_tests);
    ("ext2.general_search", general_search_tests);
    ("ext2.serialization", io_tests);
  ]
