(* Heavier integration tests crossing all layers: multi-round formula vs
   operational semantics, random execution spot-checks, and multi-round
   impossibility. *)

open Psph_topology
open Psph_model
open Pseudosphere
open Psph_agreement

let inputs n = List.init (n + 1) (fun i -> (i, i mod 2))

let input_simplex n = Input_complex.simplex_of_inputs (inputs n)

let facet_of_global g =
  Simplex.of_procs
    (List.map (fun (q, view) -> (q, View.to_label view)) (Pid.Map.bindings g))

let multi_round_tests =
  [
    Alcotest.test_case "A^2 wait-free (n=2 f=2) equals enumeration" `Quick
      (fun () ->
        let formula = Async_complex.rounds ~n:2 ~f:2 ~r:2 (input_simplex 2) in
        let enumerated = Enumerated.async ~n:2 ~f:2 ~r:2 (inputs 2) in
        Alcotest.(check bool) "equal" true (Complex.equal formula enumerated);
        (* Lemma 12 at r=2, f=2: 1-connected *)
        Alcotest.(check bool) "1-connected" true (Homology.is_k_connected formula 1));
    Alcotest.test_case "S^3 (n=2 k=1) equals enumeration" `Quick (fun () ->
        let formula = Sync_complex.rounds ~k:1 ~r:3 (input_simplex 2) in
        let enumerated = Enumerated.sync ~k:1 ~r:3 (inputs 2) in
        Alcotest.(check bool) "equal" true (Complex.equal formula enumerated));
    Alcotest.test_case "M^2 (n=2 k=1 p=2) equals enumeration" `Quick (fun () ->
        let formula = Semi_sync_complex.rounds ~k:1 ~p:2 ~n:2 ~r:2 (input_simplex 2) in
        let enumerated = Enumerated.semi ~k:1 ~p:2 ~n:2 ~r:2 (inputs 2) in
        Alcotest.(check bool) "equal" true (Complex.equal formula enumerated));
    Alcotest.test_case "async consensus stays impossible at r = 3" `Quick
      (fun () ->
        (* connectivity persists round after round (Lemma 12): use the fast
           component-based consensus check on the big complex *)
        let ic = Input_complex.make ~n:2 ~values:[ 0; 1 ] in
        let c = Async_complex.over_inputs ~n:2 ~f:1 ~r:3 ic in
        Alcotest.(check bool) "no consensus map" false
          (Decision.consensus_components_solvable ~complex:c ~allowed:Task.allowed));
    Alcotest.test_case "sync consensus flips exactly at the bound (n=2)" `Quick
      (fun () ->
        let ic = Input_complex.make ~n:2 ~values:[ 0; 1 ] in
        let solvable r =
          Decision.consensus_components_solvable
            ~complex:(Sync_complex.over_inputs ~k:1 ~r ic)
            ~allowed:Task.allowed
        in
        (* Theorem 18: bound is 2 rounds for n=2 > f+k=2? n=2 = f+k -> 1
           round bound... empirically: r=1 impossible, r=2 solvable *)
        Alcotest.(check bool) "r=1" false (solvable 1);
        Alcotest.(check bool) "r=2" true (solvable 2));
  ]

let random_spot_tests =
  [
    Alcotest.test_case "random 2-round sync executions land in S^2" `Quick
      (fun () ->
        let formula = Sync_complex.rounds ~k:1 ~r:2 (input_simplex 2) in
        List.iter
          (fun seed ->
            let g0 = Execution.initial (inputs 2) in
            let s1 =
              Random_adversary.schedules_sync ~seed ~k:1 ~alive:(Execution.alive g0)
            in
            let g1 = Execution.apply_sync g0 s1 in
            let s2 =
              Random_adversary.schedules_sync ~seed:(seed + 1000) ~k:1
                ~alive:(Execution.alive g1)
            in
            let g2 = Execution.apply_sync g1 s2 in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d" seed)
              true
              (Complex.mem (facet_of_global g2) formula))
          (List.init 20 (fun i -> i)));
    Alcotest.test_case "random 2-round semi executions land in M^2" `Quick
      (fun () ->
        let formula = Semi_sync_complex.rounds ~k:1 ~p:2 ~n:2 ~r:2 (input_simplex 2) in
        List.iter
          (fun seed ->
            let g0 = Execution.initial (inputs 2) in
            let s1 =
              Random_adversary.schedules_semi ~seed ~k:1 ~p:2 ~n:2
                ~alive:(Execution.alive g0)
            in
            let g1 = Execution.apply_semi ~p:2 ~n:2 g0 s1 in
            let s2 =
              Random_adversary.schedules_semi ~seed:(seed + 1000) ~k:1 ~p:2 ~n:2
                ~alive:(Execution.alive g1)
            in
            let g2 = Execution.apply_semi ~p:2 ~n:2 g1 s2 in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d" seed)
              true
              (Complex.mem (facet_of_global g2) formula))
          (List.init 20 (fun i -> i)));
    Alcotest.test_case "random IIS executions land in the IIS complex" `Quick
      (fun () ->
        let formula = Iis_complex.rounds ~r:2 (input_simplex 1) in
        let all = Snapshot.run ~rounds:2 (Execution.initial (inputs 1)) in
        List.iter
          (fun g ->
            Alcotest.(check bool) "member" true
              (Complex.mem (facet_of_global g) formula))
          all);
  ]

let cross_layer_tests =
  [
    Alcotest.test_case "MV bound matches homology on every sync grid point" `Quick
      (fun () ->
        List.iter
          (fun (n, k) ->
            let s = input_simplex n in
            let pss = List.map snd (Sync_complex.pseudospheres ~k s) in
            let proof = Mayer_vietoris.union_connectivity pss in
            let realized = Mayer_vietoris.union_realize pss in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d k=%d" n k)
              true
              (Homology.is_k_connected realized (Mayer_vietoris.conn proof)))
          [ (1, 1); (2, 1); (3, 1); (2, 2); (3, 2) ]);
    Alcotest.test_case "certificate agrees with homology on protocol complexes"
      `Quick (fun () ->
        List.iter
          (fun c ->
            let cert = Connectivity.certify c in
            let conn = Homology.connectivity c in
            (* whatever the certificate claims must be sound *)
            List.iter
              (fun k ->
                if Connectivity.certifies_k_connected cert k then
                  Alcotest.(check bool)
                    (Printf.sprintf "k=%d sound" k)
                    true
                    (Homology.is_k_connected c k || k > Complex.dim c))
              [ -1; 0; 1 ];
            ignore conn)
          [
            Async_complex.one_round ~n:2 ~f:1 (input_simplex 2);
            Sync_complex.one_round ~k:1 (input_simplex 2);
            Semi_sync_complex.one_round ~k:1 ~p:2 ~n:2 (input_simplex 2);
            Iis_complex.one_round (input_simplex 2);
          ]);
    Alcotest.test_case "serialized protocol complexes reload with equal homology"
      `Quick (fun () ->
        let c = Semi_sync_complex.one_round ~k:1 ~p:2 ~n:2 (input_simplex 2) in
        let c' = Complex_io.complex_of_string (Complex_io.complex_to_string c) in
        Alcotest.(check (list int))
          "betti"
          (Array.to_list (Homology.betti c))
          (Array.to_list (Homology.betti c')));
    Alcotest.test_case "knowledge vs decision: common knowledge iff solvable"
      `Quick (fun () ->
        (* single-value inputs: consensus trivially solvable AND value
           presence is common knowledge *)
        let ic = Input_complex.make ~n:2 ~values:[ 0 ] in
        let c = Async_complex.over_inputs ~n:2 ~f:1 ~r:1 ic in
        let solvable =
          Decision.consensus_components_solvable ~complex:c ~allowed:Task.allowed
        in
        Alcotest.(check bool) "solvable" true solvable;
        match Complex.facets c with
        | facet :: _ ->
            Alcotest.(check bool) "common knowledge" true
              (Knowledge.common_knowledge_at c facet (Knowledge.fact_value_present 0))
        | [] -> Alcotest.fail "no facets");
  ]

(* The appendix of EXPERIMENTS.md records the transcript that the
   runtest rule diffs bin/experiments.exe against: a [dune promote] that
   updates experiments.expected must update the appendix too. *)
let transcript_tests =
  [
    Alcotest.test_case "EXPERIMENTS.md appendix = experiments.expected" `Quick
      (fun () ->
        let here = Filename.dirname Sys.executable_name in
        let lines path = In_channel.with_open_text path In_channel.input_lines in
        (* the first fenced block after the appendix heading *)
        let rec heading = function
          | [] -> Alcotest.fail "EXPERIMENTS.md: no \"## Appendix\" heading"
          | l :: rest ->
              if String.starts_with ~prefix:"## Appendix" l then fence rest
              else heading rest
        and fence = function
          | [] -> Alcotest.fail "EXPERIMENTS.md: no fenced block in the appendix"
          | "```" :: rest -> block [] rest
          | _ :: rest -> fence rest
        and block acc = function
          | [] -> Alcotest.fail "EXPERIMENTS.md: unterminated appendix block"
          | "```" :: _ -> List.rev acc
          | l :: rest -> block (l :: acc) rest
        in
        Alcotest.(check (list string)) "appendix"
          (lines (Filename.concat here "experiments.expected"))
          (heading (lines (Filename.concat here "../EXPERIMENTS.md"))));
  ]

let suites =
  [
    ("integration.multi_round", multi_round_tests);
    ("integration.random_spot", random_spot_tests);
    ("integration.cross_layer", cross_layer_tests);
    ("integration.transcript", transcript_tests);
  ]
