(* Regenerate every figure and formal result of Herlihy-Rajsbaum-Tuttle,
   "Unifying Synchronous and Asynchronous Message-Passing Models" (PODC'98).

   Each section prints the paper's claim next to the measured outcome; the
   whole output is recorded in EXPERIMENTS.md.  Run a subset with
   `dune exec bin/experiments.exe -- F1 L11 ...`. *)

open Psph_topology
open Psph_model
open Pseudosphere
open Psph_agreement

let section id title = Format.printf "@.== %s: %s@." id title

let row fmt = Format.printf fmt

let checks = ref 0

let failures = ref 0

let ok b =
  incr checks;
  if b then "ok"
  else begin
    incr failures;
    "FAIL"
  end

let fvec c =
  Complex.f_vector c |> Array.to_list |> List.map string_of_int
  |> String.concat ","

let betti c =
  Homology.betti c |> Array.to_list |> List.map string_of_int |> String.concat ","

let inputs = Solver.standard_inputs

let input_simplex = Solver.standard_input

(* ------------------------------------------------------------------ *)

let f1 () =
  section "F1" "Figure 1 - the three-process binary pseudosphere";
  let ps = Psph.binary 2 in
  let c = Psph.realize ~vertex:Psph.default_vertex ps in
  row "  psi(S^2;{0,1}): f=(%s) chi=%d betti=(%s)@." (fvec c) (Complex.euler c)
    (betti c);
  row "  paper: topologically a 2-sphere  -> betti (1,0,1): %s@."
    (ok (betti c = "1,0,1"));
  row "  octahedron counts (6,12,8): %s@." (ok (fvec c = "6,12,8"))

let f2 () =
  section "F2" "Figure 2 - psi(S^1;{0,1}) and psi(S^0;{0,1,2})";
  let square =
    Psph.realize ~vertex:Psph.default_vertex
      (Psph.uniform ~base:(Simplex.proc_simplex 1) [ Label.Int 0; Label.Int 1 ])
  in
  row "  psi(S^1;{0,1}): f=(%s) betti=(%s) -> a circle: %s@." (fvec square)
    (betti square)
    (ok (betti square = "1,1"));
  let three =
    Psph.realize ~vertex:Psph.default_vertex
      (Psph.uniform ~base:(Simplex.proc_simplex 0)
         [ Label.Int 0; Label.Int 1; Label.Int 2 ])
  in
  row "  psi(S^0;{0,1,2}): f=(%s) -> three isolated vertices: %s@." (fvec three)
    (ok (fvec three = "3"));
  row "  Cor 6 degrees: square is 0-connected %s, points are (-1)-connected %s@."
    (ok (Homology.is_k_connected square 0))
    (ok (Homology.is_k_connected three (-1)))

let f3 () =
  section "F3" "Figure 3 - one-round synchronous complex, 3 processes, <=1 failure";
  let s = input_simplex 2 in
  List.iter
    (fun k ->
      let c = Sync_complex.one_round_failing s k in
      row "  exactly K=%a fail: f=(%s)@." Pid.Set.pp k (fvec c))
    (Failure.subsets_of_size_at_most (Pid.Set.of_list [ 0; 1; 2 ]) 1);
  let c = Sync_complex.one_round ~k:1 s in
  row "  union S^1(S^2): f=(%s) chi=%d@." (fvec c) (Complex.euler c);
  row "  paper: failure-free triangle + three single-failure pseudospheres,@.";
  row "  0-connected (Lemma 16): %s@." (ok (Homology.is_k_connected c 0))

let l4 () =
  section "L4" "Lemma 4 - pseudosphere algebra";
  let base = Simplex.proc_simplex 2 in
  let single =
    Psph.realize ~vertex:Psph.default_vertex (Psph.uniform ~base [ Label.Int 9 ])
  in
  row "  (1) singleton values: psi(S;{u}) ~ S: %s@."
    (ok (Simplicial_map.are_isomorphic single (Complex.of_simplex base)));
  let with_empty =
    Psph.create ~base ~values:(fun p -> if p = 1 then [] else [ Label.Int 0; Label.Int 1 ])
  in
  let without =
    Psph.create
      ~base:(Simplex.without_ids (Pid.Set.singleton 1) base)
      ~values:(fun _ -> [ Label.Int 0; Label.Int 1 ])
  in
  row "  (2) empty value set deletes the vertex: %s@."
    (ok (Complex.equal (Psph.realize with_empty) (Psph.realize without)));
  let a = Psph.uniform ~base [ Label.Int 0; Label.Int 1 ] in
  let b = Psph.uniform ~base [ Label.Int 1; Label.Int 2 ] in
  row "  (3) intersection law: %s@."
    (ok
       (Complex.equal
          (Complex.inter (Psph.realize a) (Psph.realize b))
          (Psph.realize (Psph.inter a b))))

let c6c8 () =
  section "C6/C8" "Corollaries 6 and 8 - pseudosphere connectivity";
  List.iter
    (fun (m, sizes) ->
      let ps =
        Psph.create ~base:(Simplex.proc_simplex m) ~values:(fun p ->
            List.init (List.nth sizes p) (fun i -> Label.Int i))
      in
      let c = Psph.realize ps in
      row "  m=%d sizes=(%s): (m-1)=%d-connected: %s@." m
        (String.concat "," (List.map string_of_int sizes))
        (m - 1)
        (ok (Homology.is_k_connected c (m - 1))))
    [ (1, [ 2; 2 ]); (2, [ 2; 2; 2 ]); (2, [ 1; 2; 3 ]); (3, [ 2; 1; 2; 1 ]) ];
  (* Cor 8: union over value families with common intersection *)
  let base = Simplex.proc_simplex 2 in
  let family =
    [ [ Label.Int 0; Label.Int 1 ]; [ Label.Int 0; Label.Int 2 ]; [ Label.Int 0; Label.Int 3 ] ]
  in
  let pss = List.map (fun us -> Psph.uniform ~base us) family in
  let union = Mayer_vietoris.union_realize pss in
  row "  Cor 8: union of psi(S^2;A_i), /\\A_i = {0}: (m-1)=1-connected: %s@."
    (ok (Homology.is_k_connected union 1))

let l11 () =
  section "L11" "Lemma 11 - A^1(S) is a single pseudosphere";
  List.iter
    (fun (n, f) ->
      let s = input_simplex n in
      let a1 = Async_complex.one_round ~n ~f s in
      let en = Enumerated.async ~n ~f ~r:1 (inputs n) in
      row
        "  n=%d f=%d: facets=%d simplices=%d | explicit iso: %s | = enumerated \
         executions: %s@."
        n f
        (List.length (Complex.facets a1))
        (Complex.num_simplices a1)
        (ok (Async_complex.lemma11_holds ~n ~f s))
        (ok (Complex.equal a1 en)))
    [ (1, 1); (2, 1); (2, 2); (3, 1) ]

let l12 () =
  section "L12/C13" "Lemma 12 & Corollary 13 - asynchronous connectivity and k-set impossibility";
  List.iter
    (fun (n, f, r) ->
      let c = Async_complex.rounds ~n ~f ~r (input_simplex n) in
      let claimed = Async_complex.lemma12_expected_connectivity ~m:n ~n ~f in
      row "  A^%d(S^%d) f=%d: simplices=%d claimed conn>=%d: %s@." r n f
        (Complex.num_simplices c) claimed
        (ok (Homology.is_k_connected c claimed)))
    [ (1, 1, 1); (2, 1, 1); (2, 2, 1); (2, 1, 2); (2, 2, 2); (3, 1, 1) ];
  List.iter
    (fun (n, f, k, r) ->
      let chk = Lower_bound.async_check ~n ~f ~k ~r ~values:(Value.domain k) in
      row "  %a  -> %s@." Lower_bound.pp_check chk (ok (Lower_bound.holds chk)))
    [ (2, 1, 1, 1); (2, 1, 1, 2); (2, 2, 2, 1); (2, 1, 2, 1) ]

let l14_18 () =
  section "L14-L17/T18" "Synchronous model";
  let s2 = input_simplex 2 in
  List.iter
    (fun (n, k) ->
      let s = input_simplex n in
      row "  L14 n=%d |K|=%d: iso %s@." n (Pid.Set.cardinal k)
        (ok (Sync_complex.lemma14_holds s k)))
    [ (2, Pid.Set.singleton 2); (2, Pid.Set.of_list [ 0; 1 ]); (3, Pid.Set.of_list [ 1; 3 ]) ];
  let all_k = Failure.subsets_of_size_at_most (Pid.Set.of_list [ 0; 1; 2 ]) 2 in
  let rec prefixes acc = function
    | [] -> []
    | k :: rest -> List.rev (k :: acc) :: prefixes (k :: acc) rest
  in
  let pref_ok =
    List.for_all
      (fun p -> List.length p < 2 || Sync_complex.lemma15_holds s2 p)
      (prefixes [] all_k)
  in
  row "  L15 intersection identity over every prefix (n=2, k<=2): %s@." (ok pref_ok);
  List.iter
    (fun (n, k, r) ->
      let c = Sync_complex.rounds ~k ~r (input_simplex n) in
      let claimed = Sync_complex.lemma16_expected_connectivity ~m:n ~n ~k in
      let applies = n >= (r * k) + k in
      row "  L16/17 S^%d(S^%d) k=%d: simplices=%d %s@." r n k
        (Complex.num_simplices c)
        (if applies then
           Printf.sprintf "claimed conn>=%d: %s" claimed
             (ok (Homology.is_k_connected c claimed))
         else "hypothesis n >= rk+k fails (no claim)"))
    [ (2, 1, 1); (3, 1, 1); (4, 1, 1); (4, 2, 1); (3, 1, 2) ];
  row "  T18 round lower bounds (n, f, k -> rounds):@.";
  List.iter
    (fun (n, f, k) ->
      row "    n=%d f=%d k=%d -> %d@." n f k (Lower_bound.theorem18_rounds ~n ~f ~k))
    [ (3, 1, 1); (4, 2, 1); (5, 2, 1); (5, 4, 2); (2, 1, 1); (2, 2, 2) ];
  (* decision search at and past the bound *)
  List.iter
    (fun (n, k_round, k_task, r) ->
      let chk = Lower_bound.sync_check ~n ~k_round ~k_task ~r ~values:(Value.domain k_task) in
      row "  %a  -> %s@." Lower_bound.pp_check chk (ok (Lower_bound.holds chk)))
    [ (2, 1, 1, 1); (2, 1, 1, 2); (3, 1, 1, 1) ];
  (* matching upper bounds, exhaustively verified *)
  let v1 =
    Runner.check_sync_exhaustive ~protocol:(Protocols.flood_consensus ~f:1)
      ~k_task:1 ~total_crashes:1 ~inputs:(inputs 2) ~max_rounds:3
  in
  row "  upper bound: flooding consensus f=1 in %d rounds, exhaustive check: %s@."
    2
    (ok (v1 = []));
  let v2 =
    Runner.check_sync_exhaustive ~protocol:(Protocols.sync_kset ~f:2 ~k:2)
      ~k_task:2 ~total_crashes:2 ~inputs:(inputs 2) ~max_rounds:4
  in
  row "  upper bound: 2-set agreement f=2 in %d rounds, exhaustive check: %s@."
    (Protocols.sync_kset_rounds ~f:2 ~k:2)
    (ok (v2 = []))

let l19_22 () =
  section "L19-L21/C22" "Semi-synchronous model";
  let s2 = input_simplex 2 in
  List.iter
    (fun (n, p, pat) ->
      row "  L19 n=%d p=%d F=%a: iso %s@." n p Failure.pp_pattern pat
        (ok (Semi_sync_complex.lemma19_holds ~p ~n (input_simplex n) pat)))
    [
      (2, 2, Failure.pattern [ (2, 1) ]);
      (2, 2, Failure.pattern [ (1, 1); (2, 2) ]);
      (2, 3, Failure.pattern [ (0, 2) ]);
    ];
  let pats = Semi_sync_complex.pseudospheres ~k:1 ~p:2 ~n:2 s2 |> List.map fst in
  let rec prefixes acc = function
    | [] -> []
    | x :: rest -> List.rev (x :: acc) :: prefixes (x :: acc) rest
  in
  let pref_ok =
    List.for_all
      (fun pr -> List.length pr < 2 || Semi_sync_complex.lemma20_holds ~p:2 ~n:2 s2 pr)
      (prefixes [] pats)
  in
  row "  L20 intersection identity over every ordered prefix (n=2, k=1, p=2): %s@."
    (ok pref_ok);
  List.iter
    (fun (n, k, p, r) ->
      let c = Semi_sync_complex.rounds ~k ~p ~n ~r (input_simplex n) in
      let claimed = Semi_sync_complex.lemma21_expected_connectivity ~m:n ~n ~k in
      let applies = n >= (r + 1) * k in
      row "  L21 M^%d(S^%d) k=%d p=%d: simplices=%d %s@." r n k p
        (Complex.num_simplices c)
        (if applies then
           Printf.sprintf "claimed conn>=%d: %s" claimed
             (ok (Homology.is_k_connected c claimed))
         else "hypothesis n >= (r+1)k fails (no claim)"))
    [ (2, 1, 2, 1); (3, 1, 2, 1); (2, 1, 3, 1); (1, 1, 2, 1) ];
  row "  C22 wait-free time bounds (f, k, C=c2/c1, d=10):@.";
  List.iter
    (fun (f, k, c2) ->
      row "    f=%d k=%d C=%d -> %.1f@." f k c2
        (Lower_bound.corollary22_time ~f ~k ~c1:1 ~c2 ~d:10))
    [ (2, 1, 2); (3, 1, 2); (4, 2, 2); (2, 1, 3); (4, 1, 4) ];
  (* the stretch, realized in the timed simulator *)
  let cfg = { Sim.c1 = 1; c2 = 3; d = 3 } in
  let r = 1 in
  let after_step = r * Sim.microrounds cfg in
  let solo = Sim.run cfg ~n:2 (Sim.slow_solo cfg ~survivor:0 ~after_step) ~until:30 in
  let fast = Sim.run cfg ~n:2 (Sim.lockstep cfg) ~until:30 in
  let cc = cfg.Sim.c2 / cfg.Sim.c1 in
  let t_solo = (r * cfg.Sim.d) + (cc * cfg.Sim.d) in
  let t_fast = (r + 1) * cfg.Sim.d in
  row
    "  stretch: slow-solo at rd+Cd-eps indistinguishable from lockstep at \
     (r+1)d-eps: %s@."
    (ok (Sim.indistinguishable_to 0 (solo, t_solo) (fast, t_fast)));
  (* timeout protocol in the simulator vs the bound *)
  let f = 1 in
  let protocol = Protocols.semi_sync_consensus ~f in
  let cfg2 = { Sim.c1 = 1; c2 = 2; d = 10 } in
  let ds =
    Sim.decision_time cfg2 ~n:2 (Sim.lockstep cfg2) ~protocol ~inputs:(inputs 2)
      ~horizon:100
  in
  let bound = Lower_bound.corollary22_time ~f ~k:1 ~c1:1 ~c2:2 ~d:10 in
  List.iter
    (fun (q, t, v) ->
      row "  protocol decision: %a t=%d v=%d (bound %.1f): %s@." Pid.pp q t v bound
        (ok (float_of_int t >= bound)))
    ds

let mv () =
  section "T2/T5/T7" "Mayer-Vietoris engine - replaying the connectivity proofs";
  List.iter
    (fun (name, pss, claimed) ->
      let proof = Mayer_vietoris.union_connectivity pss in
      row "  %s: derived conn>=%d (claimed %d), proof steps=%d, numeric check: %s@."
        name (Mayer_vietoris.conn proof) claimed (Mayer_vietoris.size proof)
        (ok (Mayer_vietoris.validate pss proof && Mayer_vietoris.conn proof >= claimed)))
    [
      ( "async A^1 n=2 f=1 (Cor 6 axiom)",
        [ Async_complex.pseudosphere ~n:2 ~f:1 (input_simplex 2) ],
        1 );
      ( "sync S^1 n=2 k=1 (Lemma 16)",
        List.map snd (Sync_complex.pseudospheres ~k:1 (input_simplex 2)),
        0 );
      ( "sync S^1 n=3 k=1 (Lemma 16)",
        List.map snd (Sync_complex.pseudospheres ~k:1 (input_simplex 3)),
        1 );
      ( "sync S^1 n=4 k=2 (Lemma 16)",
        List.map snd (Sync_complex.pseudospheres ~k:2 (input_simplex 4)),
        1 );
      ( "semi M^1 n=2 k=1 p=2 (Lemma 21)",
        List.map snd (Semi_sync_complex.pseudospheres ~k:1 ~p:2 ~n:2 (input_simplex 2)),
        0 );
      ( "semi M^1 n=2 k=1 p=3 (Lemma 21)",
        List.map snd (Semi_sync_complex.pseudospheres ~k:1 ~p:3 ~n:2 (input_simplex 2)),
        0 );
    ];
  (* print one full derivation *)
  let pss = List.map snd (Sync_complex.pseudospheres ~k:1 (input_simplex 2)) in
  row "  sample derivation (sync n=2 k=1):@.%a@." Mayer_vietoris.pp
    (Mayer_vietoris.union_connectivity pss)

let sperner () =
  section "T9/C10" "Sperner machinery and the decision-search correspondence";
  let base = Simplex.of_list [ Vertex.anon 0; Vertex.anon 1; Vertex.anon 2 ] in
  let allowed = Sperner.barycentric_allowed base in
  let chi v = List.fold_left min max_int (allowed v) in
  List.iter
    (fun iters ->
      let b = Subdivision.barycentric_iter iters (Complex.of_simplex base) in
      row "  sd^%d(triangle): %d facets, panchromatic count %d (odd: %s)@." iters
        (List.length (Complex.facets b))
        (Sperner.count_panchromatic chi 2 b)
        (ok (Sperner.lemma_holds ~allowed chi 2 b)))
    [ 1; 2 ];
  (* Cor 10 correspondence: (k-1)-connected complexes defeat k-set maps *)
  List.iter
    (fun (n, f, k) ->
      let ic = Input_complex.make ~n ~values:(Value.domain k) in
      let c = Async_complex.over_inputs ~n ~f ~r:1 ic in
      let connected = Homology.is_k_connected c (k - 1) in
      let impossible =
        Decision.solve ~complex:c ~allowed:Task.allowed ~k () = Decision.Impossible
      in
      row "  async n=%d f=%d: (k-1)=%d-connected: %b, %d-set map impossible: %b -> %s@."
        n f (k - 1) connected k impossible
        (ok (connected = impossible)))
    [ (2, 1, 1); (2, 2, 2) ]

let t5t7 () =
  section "T5/T7" "Theorems 5 and 7 as observed instances";
  let init_label v = View.to_label (View.init v) in
  List.iter
    (fun (name, op, c, n, vals) ->
      let inst =
        Connectivity_theorems.check_theorem5 ~op ~c ~base:(input_simplex n)
          ~values:(fun _ -> List.map init_label vals)
      in
      row "  T5 %s: hypothesis %s, conclusion %s (%d faces checked)@." name
        (ok inst.Connectivity_theorems.hypothesis_holds)
        (ok inst.Connectivity_theorems.conclusion_holds)
        inst.Connectivity_theorems.faces_checked)
    [
      ("async n=2 f=1 c=1", Async_complex.one_round ~n:2 ~f:1, 1, 2, [ 0; 1 ]);
      ("async n=2 f=2 c=0", Async_complex.one_round ~n:2 ~f:2, 0, 2, [ 0; 1 ]);
      ("identity c=0 (Cor 6)", Complex.of_simplex, 0, 2, [ 0; 1; 2 ]);
    ];
  let inst =
    Connectivity_theorems.check_theorem7 ~op:Complex.of_simplex ~c:0
      ~base:(input_simplex 2)
      ~families:[ [ init_label 0; init_label 1 ]; [ init_label 0; init_label 2 ] ]
  in
  row "  T7 identity on psi unions with common value: hypothesis %s, conclusion %s@."
    (ok inst.Connectivity_theorems.hypothesis_holds)
    (ok inst.Connectivity_theorems.conclusion_holds)

let knowledge () =
  section "KNOW" "Knowledge reading of similarity (Section 1)";
  let inputs = [ (0, 0); (1, 1); (2, 1) ] in
  let s = Input_complex.simplex_of_inputs inputs in
  let c1 = Sync_complex.one_round ~k:1 s in
  let fact0 = Knowledge.fact_value_present 0 in
  let fact1 = Knowledge.fact_value_present 1 in
  (match Complex.facets c1 with
  | facet :: _ ->
      row "  S^1 is connected: %b@." (Complex.is_connected c1);
      row "  value 0 (held once) is common knowledge nowhere: %s@."
        (ok (not (Knowledge.common_knowledge_at c1 facet fact0)));
      row "  value 1 (held twice, f=1) is common knowledge: %s@."
        (ok (Knowledge.common_knowledge_at c1 facet fact1))
  | [] -> ());
  let e1 = Knowledge.iterate_everyone_knows c1 1 fact1 in
  let e2 = Knowledge.iterate_everyone_knows c1 2 fact1 in
  let count phi = List.length (List.filter phi (Complex.facets c1)) in
  row "  facets where E^1(value 1): %d, E^2(value 1): %d (of %d)@." (count e1)
    (count e2)
    (List.length (Complex.facets c1))

let iis () =
  section "IIS" "The iterated immediate snapshot bridge (Section 6 / [BG97])";
  let s2 = input_simplex 2 in
  row "  one-round IIS complex = standard chromatic subdivision: %s@."
    (ok (Iis_complex.isomorphic_to_chromatic s2));
  row "  facets = Fubini(3) = 13: %s@."
    (ok (List.length (Complex.facets (Iis_complex.one_round s2)) = 13));
  row "  IIS complex = enumerated shared-memory executions: %s@."
    (ok
       (Complex.equal
          (Iis_complex.rounds ~r:1 s2)
          (Iis_complex.enumerated ~r:1 (inputs 2))));
  row "  wait-free IIS is a subcomplex of wait-free A^1: %s@."
    (ok (Iis_complex.subcomplex_of_async ~n:2 s2));
  let iis_betti =
    Homology.reduced_betti (Iis_complex.one_round s2) |> Array.to_list
    |> List.map string_of_int |> String.concat ","
  in
  let a1_betti =
    Homology.reduced_betti (Async_complex.one_round ~n:2 ~f:2 s2)
    |> Array.to_list |> List.map string_of_int |> String.concat ","
  in
  row "  IIS reduced betti (%s): contractible; A^1 wait-free (%s): wedge of spheres@."
    iis_betti a1_betti;
  row "  (the paper's message-passing analog keeps holes the snapshot model fills)@."

let scale () =
  section "SCALE" "Larger instances of the lemma grids";
  let c = Sync_complex.one_round ~k:2 (input_simplex 5) in
  row "  S^1(S^5) k=2: %d simplices, 1-connected (Lemma 16): %s@."
    (Complex.num_simplices c)
    (ok (Homology.is_k_connected c 1));
  let c6 = Sync_complex.one_round ~k:3 (input_simplex 6) in
  row "  S^1(S^6) k=3: %d simplices, 2-connected (Lemma 16): %s@."
    (Complex.num_simplices c6)
    (ok (Homology.is_k_connected c6 2));
  let a = Async_complex.one_round ~n:4 ~f:1 (input_simplex 4) in
  row "  A^1(S^4) f=1: %d simplices, 0-connected (Lemma 12): %s@."
    (Complex.num_simplices a)
    (ok (Homology.is_k_connected a 0));
  let awf = Async_complex.one_round ~n:3 ~f:3 (input_simplex 3) in
  row "  A^1(S^3) wait-free: %d simplices, 2-connected (Lemma 12): %s@."
    (Complex.num_simplices awf)
    (ok (Homology.is_k_connected awf 2));
  let m = Semi_sync_complex.one_round ~k:2 ~p:2 ~n:4 (input_simplex 4) in
  row "  M^1(S^4) k=2 p=2: %d simplices, 1-connected (Lemma 21): %s@."
    (Complex.num_simplices m)
    (ok (Homology.is_k_connected m 1));
  let s3 = input_simplex 3 in
  let all_k = Failure.subsets_of_size_at_most (Pid.Set.of_list [ 0; 1; 2; 3 ]) 1 in
  let rec prefixes acc = function
    | [] -> []
    | k :: rest -> List.rev (k :: acc) :: prefixes (k :: acc) rest
  in
  row "  L15 on S^3 (every prefix, k<=1): %s@."
    (ok
       (List.for_all
          (fun pfx -> List.length pfx < 2 || Sync_complex.lemma15_holds s3 pfx)
          (prefixes [] all_k)))

let extensions () =
  section "EXT" "Extensions beyond the paper's letter";
  (* Gafni's round-by-round suspicion structures (Related Work) *)
  List.iter
    (fun (n, f) ->
      row "  RRFD async structure recovers A^1 (n=%d f=%d): %s@." n f
        (ok (Rrfd.agrees_with_async ~n ~f (input_simplex n))))
    [ (2, 1); (2, 2); (3, 1) ];
  List.iter
    (fun (n, k) ->
      row "  RRFD sync structure recovers S^1_K (n=%d |K|=%d): %s@." n
        (Pid.Set.cardinal k)
        (ok (Rrfd.agrees_with_sync (input_simplex n) k)))
    [ (2, Pid.Set.singleton 0); (3, Pid.Set.of_list [ 1; 2 ]) ];
  (* Awerbuch's synchronizer (Related Work) *)
  let delays ~src ~dst ~round = 1 + ((src + (2 * dst) + (3 * round)) mod 5) in
  let result =
    Synchronizer.run ~n:3 ~rounds:3 ~max_delay:5 ~delays ~inputs:(inputs 3)
  in
  let reference =
    Synchronizer.synchronous_reference ~n:3 ~rounds:3 ~inputs:(inputs 3)
  in
  row "  synchronizer reproduces synchronous views over skewed delays: %s@."
    (ok (Synchronizer.correct result ~reference));
  row "  synchronizer round r completes by r * max_delay: %s@."
    (ok (Synchronizer.within_time_bound result ~max_delay:5));
  (* integral homology: the complexes are torsion-free, closing the gap
     between Z/2 and topological connectivity evidence *)
  let s2 = input_simplex 2 in
  List.iter
    (fun (name, c) ->
      let groups =
        Homology_z.homology c |> Array.to_list
        |> List.map Homology_z.group_to_string
        |> String.concat ", "
      in
      row "  integral homology of %s: (%s) torsion-free: %s@." name groups
        (ok (Homology_z.is_torsion_free c)))
    [
      ("A^1(S^2) f=1", Async_complex.one_round ~n:2 ~f:1 s2);
      ("S^1(S^2) k=1", Sync_complex.one_round ~k:1 s2);
      ("M^1(S^2) k=1 p=2", Semi_sync_complex.one_round ~k:1 ~p:2 ~n:2 s2);
    ];
  (* shellability certifies the wedge-of-spheres homotopy type *)
  row "  binary pseudosphere psi(P^2;{0,1}) is shellable: %s@."
    (ok
       (Shelling.is_shellable
          (Psph.realize ~vertex:Psph.default_vertex (Psph.binary 2))));
  row "  A^1(S^1) f=1 is shellable: %s@."
    (ok
       (Shelling.is_shellable
          (Async_complex.one_round ~n:1 ~f:1 (input_simplex 1))));
  (* early-deciding consensus *)
  let early = Protocols.early_deciding_consensus ~n:2 ~f:2 in
  let free =
    Runner.run_sync ~protocol:early ~inputs:(inputs 2)
      ~schedule:(Runner.crash_schedule ~plan:[]) ~max_rounds:5
  in
  row "  early-deciding consensus, failure-free: decides in round %d (vs f+1 = 3)@."
    free.Runner.rounds_used;
  let checked =
    Runner.check_sync_exhaustive ~protocol:early ~k_task:1 ~total_crashes:2
      ~inputs:(inputs 2) ~max_rounds:5
  in
  row "  early-deciding consensus, exhaustive safety (f=2): %s@." (ok (checked = []));
  (* trace validation *)
  let cfg = { Sim.c1 = 1; c2 = 3; d = 3 } in
  let t = Sim.run cfg ~n:2 (Sim.slow_solo cfg ~survivor:0 ~after_step:3) ~until:30 in
  row "  simulator traces validate against the timing axioms: %s@."
    (ok (Trace_check.validate cfg t = []))

let sections =
  [
    ("F1", f1); ("F2", f2); ("F3", f3); ("L4", l4); ("C6C8", c6c8); ("L11", l11);
    ("L12", l12); ("L14_18", l14_18); ("L19_22", l19_22); ("MV", mv);
    ("T9", sperner); ("T5T7", t5t7); ("KNOW", knowledge); ("IIS", iis);
    ("SCALE", scale); ("EXT", extensions);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let run (name, f) =
    if requested = [] || List.exists (fun r -> String.uppercase_ascii r = name) requested
    then f ()
  in
  Format.printf
    "Pseudosphere reproduction - Herlihy, Rajsbaum, Tuttle (PODC 1998)@.";
  List.iter run sections;
  Format.printf "@.%d checks, %d failures.@." !checks !failures;
  if !failures > 0 then exit 1
