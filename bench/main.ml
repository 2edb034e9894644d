(* Bechamel micro-benchmarks: one Test.make per experiment of the paper
   (figures F1-F3 and results L4-C22), plus the substrate operations they
   rely on.  Prints OLS time estimates (ns/run).

   Run with: dune exec bench/main.exe            (default 0.5s/test quota)
             dune exec bench/main.exe -- 0.1     (faster, rougher)

   Writes BENCH_homology.json (this table) and BENCH_models.json (the
   registry sweep).  Served throughput and latency are measured by the
   repository benchmark in perfbench/, not here. *)

open Bechamel
open Toolkit
open Psph_obs
open Psph_topology
open Psph_model
open Pseudosphere
open Psph_agreement

let inputs n = List.init (n + 1) (fun i -> (i, i mod 2))

let input_simplex n = Input_complex.simplex_of_inputs (inputs n)

let t name f = Test.make ~name (Staged.stage f)

(* Wall-time one named phase through the Obs substrate: the run is one
   observation in a [bench.<name>] histogram and the reported number is
   that histogram's sum — the bench reads back what the instrumentation
   recorded rather than keeping private timing state.  Each phase name is
   used exactly once per process, so sum = the single run's duration. *)
let timed name f =
  let h = Obs.histogram ("bench." ^ name) in
  let x = Obs.time h f in
  (x, (Obs.histogram_stats h).Obs.sum)

(* Every BENCH_*.json artifact lands via tmp + rename: CI uploads whatever
   files exist, so a bench that dies mid-write must never leave a
   half-written JSON behind a complete-looking name. *)
let write_json path f =
  Jsonl.write_atomic path f;
  print_endline ("wrote " ^ path)

(* ------------------------------------------------------------------ *)
(* figure benches                                                      *)
(* ------------------------------------------------------------------ *)

let fig_tests =
  [
    t "F1: build psi(P^2;{0,1})" (fun () ->
        Psph.realize ~vertex:Psph.default_vertex (Psph.binary 2));
    t "F1: betti of psi(P^2;{0,1})" (fun () ->
        Homology.betti (Psph.realize ~vertex:Psph.default_vertex (Psph.binary 2)));
    t "F2: build psi(P^1;{0,1}) and psi(P^0;{0,1,2})" (fun () ->
        let a =
          Psph.realize ~vertex:Psph.default_vertex
            (Psph.uniform ~base:(Simplex.proc_simplex 1) [ Label.Int 0; Label.Int 1 ])
        in
        let b =
          Psph.realize ~vertex:Psph.default_vertex
            (Psph.uniform ~base:(Simplex.proc_simplex 0)
               [ Label.Int 0; Label.Int 1; Label.Int 2 ])
        in
        (a, b));
    t "F3: build S^1(S^2) k=1" (fun () -> Sync_complex.one_round ~k:1 (input_simplex 2));
  ]

(* ------------------------------------------------------------------ *)
(* pseudosphere algebra and connectivity                               *)
(* ------------------------------------------------------------------ *)

let psph_tests =
  let base = Simplex.proc_simplex 2 in
  let a = Psph.uniform ~base [ Label.Int 0; Label.Int 1 ] in
  let b = Psph.uniform ~base [ Label.Int 1; Label.Int 2 ] in
  [
    t "L4: symbolic intersection" (fun () -> Psph.inter a b);
    t "C6: connectivity of psi(P^3;{0,1})" (fun () ->
        Homology.connectivity (Psph.realize ~vertex:Psph.default_vertex (Psph.binary 3)));
    t "psph: realize binary n=4 (2^5 facets)" (fun () ->
        Psph.realize ~vertex:Psph.default_vertex
          (Psph.uniform ~base:(Simplex.proc_simplex 4) [ Label.Int 0; Label.Int 1 ]));
  ]

(* ------------------------------------------------------------------ *)
(* asynchronous model                                                  *)
(* ------------------------------------------------------------------ *)

let async_tests =
  [
    t "L11: build A^1(S^2) f=1" (fun () -> Async_complex.one_round ~n:2 ~f:1 (input_simplex 2));
    t "L11: build A^1(S^3) f=1" (fun () -> Async_complex.one_round ~n:3 ~f:1 (input_simplex 3));
    t "L11: verify the explicit isomorphism (n=2 f=1)" (fun () ->
        Async_complex.lemma11_holds ~n:2 ~f:1 (input_simplex 2));
    t "L11: enumerate all one-round async executions (n=2 f=1)" (fun () ->
        Enumerated.async ~n:2 ~f:1 ~r:1 (inputs 2));
    t "L12: build A^2(S^2) f=1" (fun () ->
        Async_complex.rounds ~n:2 ~f:1 ~r:2 (input_simplex 2));
    t "L12: connectivity of A^2(S^2) f=1" (fun () ->
        Homology.is_k_connected (Async_complex.rounds ~n:2 ~f:1 ~r:2 (input_simplex 2)) 0);
    t "C13: decision search, async consensus r=1 (impossible)" (fun () ->
        Decision.solve
          ~complex:
            (Async_complex.over_inputs ~n:2 ~f:1 ~r:1
               (Input_complex.make ~n:2 ~values:[ 0; 1 ]))
          ~allowed:Task.allowed ~k:1 ());
  ]

(* ------------------------------------------------------------------ *)
(* synchronous model                                                   *)
(* ------------------------------------------------------------------ *)

let sync_tests =
  [
    t "L14: build S^1_K(S^3), |K|=1" (fun () ->
        Sync_complex.one_round_failing (input_simplex 3) (Pid.Set.singleton 0));
    t "L15: verify the intersection identity (n=2, full prefix)" (fun () ->
        Sync_complex.lemma15_holds (input_simplex 2)
          (Failure.subsets_of_size_at_most (Pid.Set.of_list [ 0; 1; 2 ]) 1));
    t "L16: build + connectivity of S^1(S^3) k=1" (fun () ->
        Homology.is_k_connected (Sync_complex.one_round ~k:1 (input_simplex 3)) 0);
    t "L17: build S^2(S^3) k=1" (fun () ->
        Sync_complex.rounds ~k:1 ~r:2 (input_simplex 3));
    t "T18: flooding consensus, exhaustive verification (n=2 f=1)" (fun () ->
        Runner.check_sync_exhaustive
          ~protocol:(Protocols.flood_consensus ~f:1)
          ~k_task:1 ~total_crashes:1 ~inputs:(inputs 2) ~max_rounds:3);
    t "T18: decision search, sync consensus r=1 (impossible)" (fun () ->
        Decision.solve
          ~complex:
            (Sync_complex.over_inputs ~k:1 ~r:1 (Input_complex.make ~n:2 ~values:[ 0; 1 ]))
          ~allowed:Task.allowed ~k:1 ());
  ]

(* ------------------------------------------------------------------ *)
(* semi-synchronous model                                              *)
(* ------------------------------------------------------------------ *)

let semi_tests =
  let cfg = { Sim.c1 = 1; c2 = 3; d = 3 } in
  [
    t "L19: build M^1_{K,F}(S^2) p=2" (fun () ->
        Semi_sync_complex.one_round_pattern ~p:2 ~n:2 (input_simplex 2)
          (Failure.pattern [ (2, 1) ]));
    t "L20: verify the intersection identity (n=2 k=1 p=2)" (fun () ->
        let pats =
          Semi_sync_complex.pseudospheres ~k:1 ~p:2 ~n:2 (input_simplex 2)
          |> List.map fst
        in
        Semi_sync_complex.lemma20_holds ~p:2 ~n:2 (input_simplex 2) pats);
    t "L21: build + connectivity of M^1(S^2) k=1 p=2" (fun () ->
        Homology.is_k_connected
          (Semi_sync_complex.one_round ~k:1 ~p:2 ~n:2 (input_simplex 2))
          0);
    t "C22: timed simulation, 3 procs, 10 rounds" (fun () ->
        Sim.run cfg ~n:2 (Sim.lockstep cfg) ~until:(10 * cfg.Sim.d));
    t "C22: stretch indistinguishability check" (fun () ->
        let after_step = Sim.microrounds cfg in
        let solo =
          Sim.run cfg ~n:2 (Sim.slow_solo cfg ~survivor:0 ~after_step) ~until:30
        in
        let fast = Sim.run cfg ~n:2 (Sim.lockstep cfg) ~until:30 in
        Sim.indistinguishable_to 0 (solo, 12) (fast, 6));
    t "C22: timeout protocol decision times" (fun () ->
        Sim.decision_time cfg ~n:2 (Sim.lockstep cfg)
          ~protocol:(Protocols.semi_sync_consensus ~f:1)
          ~inputs:(inputs 2) ~horizon:30);
  ]

(* ------------------------------------------------------------------ *)
(* Mayer-Vietoris and Sperner machinery                                *)
(* ------------------------------------------------------------------ *)

let mv_tests =
  [
    t "T2: MV derivation for S^1(S^2) k=1" (fun () ->
        Mayer_vietoris.union_connectivity
          (List.map snd (Sync_complex.pseudospheres ~k:1 (input_simplex 2))));
    t "T2: MV derivation for S^1(S^3) k=1" (fun () ->
        Mayer_vietoris.union_connectivity
          (List.map snd (Sync_complex.pseudospheres ~k:1 (input_simplex 3))));
    t "T2: MV derivation for M^1(S^2) k=1 p=2" (fun () ->
        Mayer_vietoris.union_connectivity
          (List.map snd (Semi_sync_complex.pseudospheres ~k:1 ~p:2 ~n:2 (input_simplex 2))));
    t "T9: Sperner count on sd^2(triangle)" (fun () ->
        let base = Simplex.of_list [ Vertex.anon 0; Vertex.anon 1; Vertex.anon 2 ] in
        let allowed = Sperner.barycentric_allowed base in
        let chi v = List.fold_left min max_int (allowed v) in
        Sperner.count_panchromatic chi 2
          (Subdivision.barycentric_iter 2 (Complex.of_simplex base)));
  ]

(* ------------------------------------------------------------------ *)
(* substrate                                                           *)
(* ------------------------------------------------------------------ *)

let substrate_tests =
  let big = Psph.realize ~vertex:Psph.default_vertex (Psph.binary 3) in
  let torus =
    Complex.of_facets
      (List.concat_map
         (fun i ->
           [ Simplex.of_list (List.map Vertex.anon [ i; (i + 1) mod 7; (i + 3) mod 7 ]);
             Simplex.of_list (List.map Vertex.anon [ i; (i + 2) mod 7; (i + 3) mod 7 ]) ])
         [ 0; 1; 2; 3; 4; 5; 6 ])
  in
  [
    t "substrate: Z/2 homology of the torus" (fun () -> Homology.betti torus);
    t "substrate: collapse of a solid 5-simplex" (fun () ->
        Collapse.collapse (Complex.of_simplex (Simplex.proc_simplex 5)));
    t "substrate: barycentric subdivision of the octahedron" (fun () ->
        Subdivision.barycentric big);
    t "substrate: chromatic subdivision of P^3" (fun () ->
        Subdivision.chromatic_of_simplex (Simplex.proc_simplex 3));
    t "substrate: facets of psi(P^3;{0,1})" (fun () -> Complex.facets big);
    t "substrate: isomorphism search on the octahedron" (fun () ->
        let oct = Psph.realize ~vertex:Psph.default_vertex (Psph.binary 2) in
        Simplicial_map.are_isomorphic ~respect_pids:false oct
          (Complex.map
             (function Vertex.Proc (p, l) -> Vertex.Proc (p + 1, l) | v -> v)
             oct));
  ]

(* ------------------------------------------------------------------ *)
(* ablations and extensions                                            *)
(* ------------------------------------------------------------------ *)

let ablation_tests =
  let pss4 = List.map snd (Sync_complex.pseudospheres ~k:1 (input_simplex 3)) in
  let dec_complex =
    Sync_complex.over_inputs ~k:1 ~r:1 (Input_complex.make ~n:2 ~values:[ 0; 1 ])
  in
  let a2 = Async_complex.rounds ~n:2 ~f:1 ~r:2 (input_simplex 2) in
  [
    t "ablation: MV with subsumption pruning (S^1(S^3))" (fun () ->
        Mayer_vietoris.union_connectivity pss4);
    t "ablation: MV without pruning (S^1(S^3))" (fun () ->
        Mayer_vietoris.union_connectivity ~prune_subsumed:false pss4);
    t "ablation: decision search with forward checking" (fun () ->
        Decision.solve ~complex:dec_complex ~allowed:Task.allowed ~k:1 ());
    t "ablation: decision search without forward checking" (fun () ->
        Decision.solve ~forward_check:false ~complex:dec_complex
          ~allowed:Task.allowed ~k:1 ());
    t "ablation: direct Z/2 homology of A^2(S^2)" (fun () ->
        Homology.reduced_betti ~max_dim:1 a2);
    t "ablation: collapse then Z/2 homology of A^2(S^2)" (fun () ->
        Homology.reduced_betti ~max_dim:1 (Collapse.collapse a2));
  ]

let extension_tests =
  let cfg = { Sim.c1 = 1; c2 = 3; d = 3 } in
  [
    t "ext: IIS one-round complex (13 facets)" (fun () ->
        Iis_complex.one_round (input_simplex 2));
    t "ext: IIS vs chromatic subdivision isomorphism" (fun () ->
        Iis_complex.isomorphic_to_chromatic (input_simplex 2));
    t "ext: SVG rendering of the octahedron" (fun () ->
        Render.svg (Psph.realize ~vertex:Psph.default_vertex (Psph.binary 2)));
    t "ext: complex serialization round-trip (S^1(S^2))" (fun () ->
        let c = Sync_complex.one_round ~k:1 (input_simplex 2) in
        Complex_io.complex_of_string (Complex_io.complex_to_string c));
    t "ext: RRFD async structure = A^1 (n=2 f=1)" (fun () ->
        Rrfd.agrees_with_async ~n:2 ~f:1 (input_simplex 2));
    t "ext: synchronizer, 4 procs, 3 rounds" (fun () ->
        Synchronizer.run ~n:3 ~rounds:3 ~max_delay:5
          ~delays:(fun ~src ~dst ~round -> 1 + ((src + dst + round) mod 5))
          ~inputs:(inputs 3));
    t "ext: integral homology (SNF) of S^1(S^2)" (fun () ->
        Homology_z.homology (Sync_complex.one_round ~k:1 (input_simplex 2)));
    t "ext: shelling search on the octahedron" (fun () ->
        Shelling.find_shelling
          (Psph.realize ~vertex:Psph.default_vertex (Psph.binary 2)));
    t "ext: trace validation of a 10-round run" (fun () ->
        Trace_check.validate cfg (Sim.run cfg ~n:2 (Sim.lockstep cfg) ~until:30));
    t "ext: early-deciding consensus, exhaustive check (n=2 f=1)" (fun () ->
        Runner.check_sync_exhaustive
          ~protocol:(Protocols.early_deciding_consensus ~n:2 ~f:1)
          ~k_task:1 ~total_crashes:1 ~inputs:(inputs 2) ~max_rounds:3);
    t "ext: carrier-map search (async consensus, impossible)" (fun () ->
        let ic = Input_complex.make ~n:2 ~values:[ 0; 1 ] in
        let c = Async_complex.over_inputs ~n:2 ~f:1 ~r:1 ic in
        Carrier_map.solve ~complex:c
          ~output:(Carrier_map.consensus_output ~n:2 ~values:[ 0; 1 ])
          ~carrier:Task.allowed ());
    t "ext: connectivity certificate for S^1(S^2)" (fun () ->
        Connectivity.certify (Sync_complex.one_round ~k:1 (input_simplex 2)));
    t "ext: knowledge: common knowledge sweep on S^1(S^2)" (fun () ->
        let c = Sync_complex.one_round ~k:1 (input_simplex 2) in
        let fact = Knowledge.fact_value_present 0 in
        List.map (fun f -> Knowledge.common_knowledge_at c f fact) (Complex.facets c));
  ]

(* ------------------------------------------------------------------ *)
(* model registry: every registered model, benched generically         *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  Model_complex.all ()
  |> List.concat_map (fun ((module M : Model_complex.MODEL) as m) ->
         let spec =
           match M.validate { Model_complex.default_spec with n = 2 } with
           | Ok spec -> spec
           | Error msg -> failwith (M.name ^ ": " ^ msg)
         in
         let s = input_simplex 2 in
         [
           t
             (Printf.sprintf "registry: %s one round (%s)" M.name
                (Model_complex.encode m spec))
             (fun () -> M.one_round spec s);
           t
             (Printf.sprintf "registry: %s connectivity r=1" M.name)
             (fun () -> Homology.connectivity (M.rounds spec s));
         ])

(* ------------------------------------------------------------------ *)
(* homology engine: the scale frontier                                 *)
(* ------------------------------------------------------------------ *)

(* S^2(S^4): 5 processes, 2 synchronous rounds, k = 1 — 6371 simplices.
   Under the list-based engine this construction and its connectivity
   check were out of reach in practice; the indexed, bit-packed pipeline
   handles both in well under a second. *)
let engine_tests =
  let s4 = input_simplex 4 in
  [
    t "engine: build S^2(S^4) k=1 (n=5, r=2)" (fun () ->
        Sync_complex.rounds ~k:1 ~r:2 s4);
    t "engine: connectivity of S^2(S^4) k=1 (n=5, r=2)" (fun () ->
        Homology.is_k_connected (Sync_complex.rounds ~k:1 ~r:2 s4) 0);
  ]

(* ------------------------------------------------------------------ *)
(* parameter sweeps: scaling in n for the core constructions           *)
(* ------------------------------------------------------------------ *)

let sweep_tests =
  let build_sweep name f ns =
    List.map (fun n -> t (Printf.sprintf "sweep: %s n=%d" name n) (fun () -> f n)) ns
  in
  build_sweep "A^1 f=1 construction" (fun n ->
      Async_complex.one_round ~n ~f:1 (input_simplex n))
    [ 1; 2; 3 ]
  @ build_sweep "S^1 k=1 construction" (fun n ->
        Sync_complex.one_round ~k:1 (input_simplex n))
      [ 2; 3; 4 ]
  @ build_sweep "M^1 k=1 p=2 construction" (fun n ->
        Semi_sync_complex.one_round ~k:1 ~p:2 ~n (input_simplex n))
      [ 1; 2; 3 ]
  @ build_sweep "S^1 k=1 homological connectivity" (fun n ->
        Homology.is_k_connected (Sync_complex.one_round ~k:1 (input_simplex n)) 0)
      [ 2; 3; 4 ]
  @ build_sweep "binary pseudosphere realization" (fun n ->
        Psph.realize ~vertex:Psph.default_vertex (Psph.binary n))
      [ 2; 3; 4; 5 ]
  @ build_sweep "MV derivation for S^1 k=1" (fun n ->
        Mayer_vietoris.union_connectivity
          (List.map snd (Sync_complex.pseudospheres ~k:1 (input_simplex n))))
      [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* tiered solver: symbolic derivations vs numeric elimination          *)
(* ------------------------------------------------------------------ *)

(* Reference points for the two connectivity tiers.  The symbolic rows
   answer union queries at n = 6..8 — sizes where realizing the complex
   (let alone eliminating its boundary matrices) is out of reach — in
   O(formula); the numeric rows put a number on what the Morse
   precollapse saves at a size the numeric tier still handles. *)
let solver_tests =
  let sync61 = { Model_complex.n = 6; f = 3; k = 1; p = 2; r = 1; ext = [] } in
  let sync63 = { Model_complex.n = 6; f = 3; k = 1; p = 2; r = 3; ext = [] } in
  let semi81 = { Model_complex.n = 8; f = 1; k = 1; p = 2; r = 1; ext = [] } in
  [
    t "solver: symbolic sync n=6 r=1 (Theorem 2 + Corollary 6)" (fun () ->
        Solver.symbolic_model (Model_complex.get "sync") sync61);
    t "solver: symbolic sync n=6 r=3 (round lemma)" (fun () ->
        Solver.symbolic_model (Model_complex.get "sync") sync63);
    t "solver: symbolic semi n=8 r=1 (Theorem 2 + Corollary 6)" (fun () ->
        Solver.symbolic_model (Model_complex.get "semi") semi81);
    t "solver: symbolic psph n=8 values=4 (Corollary 6)" (fun () ->
        Solver.symbolic_psph ~n:8 ~values:4);
    t "solver: numeric sync n=3 r=1 connectivity" (fun () ->
        Homology.connectivity (Sync_complex.rounds ~k:1 ~r:1 (input_simplex 3)));
  ]

(* ------------------------------------------------------------------ *)
(* model registry sweep                                                *)
(* ------------------------------------------------------------------ *)

(* Per registered model and n in {2, 3}, wall-time the r=1 and r=2
   protocol-complex builds plus both connectivity tiers on the r=1 query —
   numeric (elimination on the built complex) and symbolic
   (the solver derivation, which never builds it) — and write
   BENCH_models.json: the per-model, per-tier perf trajectory successive
   PRs can diff, generated from the registry so a newly registered model
   shows up with zero bench edits. *)
let models_bench () =
  let sweeps =
    [ 2; 3 ]
    |> List.map (fun n ->
           let s = input_simplex n in
           let rows =
             Model_complex.all ()
             |> List.map (fun ((module M : Model_complex.MODEL) as m) ->
                    let spec r =
                      match
                        M.validate { Model_complex.default_spec with n; r }
                      with
                      | Ok spec -> spec
                      | Error msg -> failwith (M.name ^ ": " ^ msg)
                    in
                    let timed_m p f =
                      timed (Printf.sprintf "model.%s.n%d.%s" M.name n p) f
                    in
                    let c1, r1_s = timed_m "r1" (fun () -> M.rounds (spec 1) s) in
                    let conn, conn_s =
                      timed_m "conn" (fun () -> Homology.connectivity c1)
                    in
                    let sym, sym_s =
                      timed_m "symbolic" (fun () -> Solver.symbolic_model m (spec 1))
                    in
                    (* a second round multiplies the facet count by the
                       per-facet branch fan-out, so gate it on the r=1
                       size: an adversary with a huge choice space (dyn at
                       n=3: 4096 digraphs per facet per round) records
                       null instead of stalling the sweep *)
                    let r2 =
                      if List.length (Complex.facets c1) > 1024 then None
                      else begin
                        let c2, r2_s = timed_m "r2" (fun () -> M.rounds (spec 2) s) in
                        Some (r2_s, Complex.num_simplices c2)
                      end
                    in
                    (M.name, r1_s, conn_s, conn, Complex.num_simplices c1, r2,
                     sym_s, sym))
           in
           (n, rows))
  in
  List.iter
    (fun (n, rows) ->
      Format.printf "@.per-model build and solver-tier times (n=%d):@." n;
      List.iter
        (fun (name, r1_s, conn_s, conn, n1, r2, sym_s, sym) ->
          Format.printf
            "  %-6s r=1 %8.2f ms (%5d simplices, conn %d numeric %.2f ms, \
             symbolic %s in %.3f ms)   r=2 %s@."
            name (1000. *. r1_s) n1 conn (1000. *. conn_s)
            (match sym with
            | Some s -> Printf.sprintf ">= %d" s.Solver.connectivity
            | None -> "n/a")
            (1000. *. sym_s)
            (match r2 with
            | Some (r2_s, n2) ->
                Printf.sprintf "%8.2f ms (%6d simplices)" (1000. *. r2_s) n2
            | None -> "skipped (fan-out too large)"))
        rows)
    sweeps;
  write_json "BENCH_models.json" @@ fun oc ->
  Printf.fprintf oc "{\n  \"sweeps\": [\n";
  List.iteri
    (fun si (n, rows) ->
      Printf.fprintf oc "    { \"n\": %d, \"models\": {\n" n;
      List.iteri
        (fun i (name, r1_s, conn_s, conn, n1, r2, sym_s, sym) ->
          let sym_bound, sym_rule =
            match sym with
            | Some s ->
                (string_of_int s.Solver.connectivity,
                 Printf.sprintf "%S" s.Solver.rule)
            | None -> ("null", "null")
          in
          let r2_s, r2_n =
            match r2 with
            | Some (r2_s, n2) -> (Printf.sprintf "%.6f" r2_s, string_of_int n2)
            | None -> ("null", "null")
          in
          Printf.fprintf oc
            "      \"%s\": { \"r1_s\": %.6f, \"r1_simplices\": %d, \
             \"r1_connectivity\": %d, \"numeric_conn_s\": %.6f, \
             \"symbolic_s\": %.6f, \"symbolic_bound\": %s, \
             \"symbolic_rule\": %s, \"r2_s\": %s, \"r2_simplices\": %s }%s\n"
            name r1_s n1 conn conn_s sym_s sym_bound sym_rule r2_s r2_n
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "    } }%s\n"
        (if si = List.length sweeps - 1 then "" else ","))
    sweeps;
  Printf.fprintf oc "  ]\n}\n"

let () =
  let quota =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.5
  in
  let tests =
    fig_tests @ psph_tests @ async_tests @ sync_tests @ semi_tests @ mv_tests
    @ substrate_tests @ ablation_tests @ extension_tests @ registry_tests
    @ engine_tests @ sweep_tests @ solver_tests
  in
  let grouped = Test.make_grouped ~name:"pseudosphere" tests in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name est acc -> (name, est) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Format.printf "%-75s %14s %8s@." "benchmark" "ns/run" "r^2";
  List.iter
    (fun (name, est) ->
      let time =
        match Analyze.OLS.estimates est with Some [ x ] -> x | _ -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square est) in
      Format.printf "%-75s %14.1f %8.4f@." name time r2)
    rows;
  (* machine-readable mirror of the table, so successive PRs can diff the
     perf trajectory: { "benchmark name": ns_per_run, ... } *)
  ( write_json "BENCH_homology.json" @@ fun oc ->
  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  Printf.fprintf oc "{\n";
  List.iteri
    (fun i (name, est) ->
      let time =
        match Analyze.OLS.estimates est with Some [ x ] -> x | _ -> nan
      in
      let num =
        if Float.is_nan time then "null" else Printf.sprintf "%.1f" time
      in
      Printf.fprintf oc "  \"%s\": %s%s\n" (escape name) num
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "}\n" );
  models_bench ()
