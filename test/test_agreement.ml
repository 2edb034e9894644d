(* Tests for tasks, decision-map search, lower bounds and protocols. *)

open Psph_topology
open Psph_model
open Pseudosphere
open Psph_agreement

let inputs n = List.init (n + 1) (fun i -> (i, i))

(* ------------------------------------------------------------------ *)
(* Task / decision search                                              *)
(* ------------------------------------------------------------------ *)

let task_tests =
  [
    Alcotest.test_case "task constructors" `Quick (fun () ->
        let t = Task.consensus ~n:2 ~values:[ 0; 1 ] in
        Alcotest.(check int) "k" 1 t.Task.k;
        Alcotest.(check string) "name" "consensus" t.Task.name;
        let t2 = Task.kset ~n:3 ~k:2 ~values:[ 0; 1; 2 ] in
        Alcotest.(check int) "k" 2 t2.Task.k);
    Alcotest.test_case "input complex of consensus is a pseudosphere" `Quick (fun () ->
        let t = Task.consensus ~n:2 ~values:[ 0; 1 ] in
        let c = Task.input_complex t in
        Alcotest.(check (list int)) "octahedron" [ 6; 12; 8 ]
          (Array.to_list (Complex.f_vector c)));
    Alcotest.test_case "allowed values are seen inputs" `Quick (fun () ->
        let a = View.init 0 and b = View.init 1 in
        let v = View.round ~prev:a ~heard:[ (0, a); (1, b) ] in
        let vertex = Vertex.proc 0 (View.to_label v) in
        Alcotest.(check (list int)) "allowed" [ 0; 1 ] (Task.allowed vertex));
    Alcotest.test_case "valid_decision_map accepts a constant map" `Quick (fun () ->
        let t = Task.consensus ~n:1 ~values:[ 0 ] in
        let ic = Task.input_complex t in
        let c = Async_complex.over_inputs ~n:1 ~f:1 ~r:1 ic in
        Alcotest.(check bool) "valid" true (Task.valid_decision_map t c (fun _ -> 0)));
    Alcotest.test_case "valid_decision_map rejects invalid value" `Quick (fun () ->
        let t = Task.consensus ~n:1 ~values:[ 0 ] in
        let ic = Task.input_complex t in
        let c = Async_complex.over_inputs ~n:1 ~f:1 ~r:1 ic in
        Alcotest.(check bool) "invalid" false (Task.valid_decision_map t c (fun _ -> 7)));
  ]

let decision_tests =
  [
    Alcotest.test_case "empty complex trivially solvable" `Quick (fun () ->
        match Decision.solve ~complex:Complex.empty ~allowed:(fun _ -> []) ~k:1 () with
        | Decision.Solution _ -> ()
        | _ -> Alcotest.fail "expected solution");
    Alcotest.test_case "k >= number of values is always solvable" `Quick (fun () ->
        let ic = Input_complex.make ~n:2 ~values:[ 0; 1 ] in
        let c = Async_complex.over_inputs ~n:2 ~f:1 ~r:1 ic in
        match Decision.solve ~complex:c ~allowed:Task.allowed ~k:2 () with
        | Decision.Solution m ->
            (* verify the witness *)
            let t = Task.kset ~n:2 ~k:2 ~values:[ 0; 1 ] in
            Alcotest.(check bool) "witness valid" true
              (Task.valid_decision_map t c (fun v -> Vertex.Map.find v m))
        | _ -> Alcotest.fail "expected solution");
    Alcotest.test_case "solution witnesses are checked (k=1, single value)" `Quick
      (fun () ->
        let ic = Input_complex.make ~n:2 ~values:[ 0 ] in
        let c = Async_complex.over_inputs ~n:2 ~f:2 ~r:1 ic in
        match Decision.solve ~complex:c ~allowed:Task.allowed ~k:1 () with
        | Decision.Solution m ->
            Vertex.Map.iter (fun _ v -> Alcotest.(check int) "all 0" 0 v) m
        | _ -> Alcotest.fail "expected solution");
    Alcotest.test_case "impossible: 1-round async consensus (FLP/Cor 13)" `Quick
      (fun () ->
        let ic = Input_complex.make ~n:2 ~values:[ 0; 1 ] in
        let c = Async_complex.over_inputs ~n:2 ~f:1 ~r:1 ic in
        Alcotest.(check bool) "impossible" true
          (Decision.solve ~complex:c ~allowed:Task.allowed ~k:1 () = Decision.Impossible));
    Alcotest.test_case "search agrees with component analysis on consensus" `Quick
      (fun () ->
        let cases =
          [ Async_complex.over_inputs ~n:2 ~f:1 ~r:1 (Input_complex.make ~n:2 ~values:[ 0; 1 ]);
            Sync_complex.over_inputs ~k:1 ~r:1 (Input_complex.make ~n:2 ~values:[ 0; 1 ]);
            Sync_complex.over_inputs ~k:1 ~r:2 (Input_complex.make ~n:2 ~values:[ 0; 1 ]) ]
        in
        List.iter
          (fun c ->
            let fast = Decision.consensus_components_solvable ~complex:c ~allowed:Task.allowed in
            let slow =
              match Decision.solve ~complex:c ~allowed:Task.allowed ~k:1 () with
              | Decision.Solution _ -> true
              | Decision.Impossible -> false
              | Decision.Unknown -> Alcotest.fail "unknown"
            in
            Alcotest.(check bool) "agree" fast slow)
          cases);
    Alcotest.test_case "tiny budget yields Unknown" `Quick (fun () ->
        let ic = Input_complex.make ~n:2 ~values:[ 0; 1 ] in
        let c = Async_complex.over_inputs ~n:2 ~f:1 ~r:1 ic in
        Alcotest.(check bool) "unknown" true
          (Decision.solve ~budget:3 ~complex:c ~allowed:Task.allowed ~k:1 ()
          = Decision.Unknown));
  ]

(* ------------------------------------------------------------------ *)
(* Lower bounds (Cor 13, Thm 18, Cor 22)                               *)
(* ------------------------------------------------------------------ *)

let lower_bound_tests =
  [
    Alcotest.test_case "Corollary 13 predicate" `Quick (fun () ->
        Alcotest.(check bool) "k<=f impossible" true
          (Lower_bound.corollary13_impossible ~f:2 ~k:2);
        Alcotest.(check bool) "k>f possible" false
          (Lower_bound.corollary13_impossible ~f:1 ~k:2));
    Alcotest.test_case "async check: 1-round consensus impossible" `Quick (fun () ->
        let c = Lower_bound.async_check ~n:2 ~f:1 ~k:1 ~r:1 ~values:[ 0; 1 ] in
        Alcotest.(check bool) "holds" true (Lower_bound.holds c);
        Alcotest.(check bool) "impossible" true (c.Lower_bound.decision = Decision.Impossible));
    Alcotest.test_case "async check: 2 rounds still impossible" `Quick (fun () ->
        let c = Lower_bound.async_check ~n:2 ~f:1 ~k:1 ~r:2 ~values:[ 0; 1 ] in
        Alcotest.(check bool) "holds" true (Lower_bound.holds c));
    Alcotest.test_case "async check: 2-set with f=1 is solvable" `Quick (fun () ->
        let c = Lower_bound.async_check ~n:2 ~f:1 ~k:2 ~r:1 ~values:[ 0; 1; 2 ] in
        Alcotest.(check bool) "holds" true (Lower_bound.holds c);
        match c.Lower_bound.decision with
        | Decision.Solution _ -> ()
        | _ -> Alcotest.fail "expected solvable");
    Alcotest.test_case "sync check: consensus needs f+1 rounds" `Quick (fun () ->
        (* n=3, k_round=1: r=1,2,3 — impossible while n >= rk+k i.e. r <= 2 *)
        let r1 = Lower_bound.sync_check ~n:3 ~k_round:1 ~k_task:1 ~r:1 ~values:[ 0; 1 ] in
        Alcotest.(check bool) "r=1 holds" true (Lower_bound.holds r1);
        Alcotest.(check bool) "r=1 impossible" true
          (r1.Lower_bound.decision = Decision.Impossible));
    Alcotest.test_case "sync check: one round past the bound is solvable" `Quick
      (fun () ->
        let c = Lower_bound.sync_check ~n:2 ~k_round:1 ~k_task:1 ~r:2 ~values:[ 0; 1 ] in
        Alcotest.(check bool) "holds" true (Lower_bound.holds c));
    Alcotest.test_case "semi check r=1" `Quick (fun () ->
        let c = Lower_bound.semi_check ~n:2 ~k_round:1 ~k_task:1 ~p:2 ~r:1 ~values:[ 0; 1 ] in
        Alcotest.(check bool) "holds" true (Lower_bound.holds c);
        Alcotest.(check bool) "impossible" true
          (c.Lower_bound.decision = Decision.Impossible));
    Alcotest.test_case "psc decide and bound refuse degenerate parameters" `Quick
      (fun () ->
        (* no task or bound is defined for these values (k = 0 divides by
           zero in the Theorem 18 bound): a usage error naming the flag *)
        List.iter
          (fun (args, flag) ->
            let status, err = Psc_child.run args in
            let what = String.concat " " args in
            Alcotest.(check bool) (what ^ ": exit 2") true (status = Unix.WEXITED 2);
            let n = String.length flag in
            let rec named i =
              i + n <= String.length err && (String.sub err i n = flag || named (i + 1))
            in
            if not (named 0) then
              Alcotest.failf "%s: %S not named in %S" what flag err)
          [
            ([ "decide"; "--task-k=-1" ], "--task-k");
            ([ "decide"; "--task-k=-2" ], "--task-k");
            ([ "decide"; "--task-k"; "0" ], "--task-k");
            ([ "bound"; "-k"; "0" ], "-k");
            ([ "bound"; "-f-1" ], "-f");
            ([ "bound"; "-n-1" ], "-n");
            ([ "bound"; "--c1"; "0" ], "--c1");
            ([ "bound"; "--c1"; "3"; "--c2"; "2" ], "--c2");
            ([ "bound"; "-d"; "0" ], "-d");
          ]);
    Alcotest.test_case "Theorem 18 formula table" `Quick (fun () ->
        List.iter
          (fun (n, f, k, expect) ->
            Alcotest.(check int)
              (Printf.sprintf "n=%d f=%d k=%d" n f k)
              expect
              (Lower_bound.theorem18_rounds ~n ~f ~k))
          [ (3, 1, 1, 2); (4, 2, 1, 3); (5, 4, 2, 2); (2, 1, 1, 1); (6, 4, 2, 2); (7, 4, 2, 3) ]);
    Alcotest.test_case "Corollary 22 formula values" `Quick (fun () ->
        Alcotest.(check (float 0.001)) "f=3 k=1 C=2 d=1" 4.0
          (Lower_bound.corollary22_time ~f:3 ~k:1 ~c1:1 ~c2:2 ~d:1));
  ]

(* ------------------------------------------------------------------ *)
(* Protocols under failure injection                                   *)
(* ------------------------------------------------------------------ *)

let protocol_tests =
  [
    Alcotest.test_case "flooding consensus: failure-free run" `Quick (fun () ->
        let protocol = Protocols.flood_consensus ~f:1 in
        let report =
          Runner.run_sync ~protocol ~inputs:(inputs 2)
            ~schedule:(Runner.crash_schedule ~plan:[]) ~max_rounds:5
        in
        Alcotest.(check int) "rounds" 2 report.Runner.rounds_used;
        Alcotest.(check int) "all decide" 3 (List.length report.Runner.decisions);
        List.iter
          (fun (_, _, v) -> Alcotest.(check int) "min input" 0 v)
          report.Runner.decisions);
    Alcotest.test_case "flooding consensus: crash mid-protocol" `Quick (fun () ->
        let protocol = Protocols.flood_consensus ~f:1 in
        (* P0 (holding the minimum) crashes in round 1, heard by nobody *)
        let plan = [ (1, 0, Pid.Set.empty) ] in
        let report =
          Runner.run_sync ~protocol ~inputs:(inputs 2)
            ~schedule:(Runner.crash_schedule ~plan) ~max_rounds:5
        in
        Alcotest.(check int) "two survivors decide" 2 (List.length report.Runner.decisions);
        List.iter
          (fun (_, _, v) -> Alcotest.(check int) "agree on 1" 1 v)
          report.Runner.decisions);
    Alcotest.test_case "flooding consensus: split delivery still agrees" `Quick
      (fun () ->
        let protocol = Protocols.flood_consensus ~f:1 in
        (* P0 crashes in round 1 and only P1 hears it: the classic
           dangerous scenario, resolved by round 2 *)
        let plan = [ (1, 0, Pid.Set.singleton 1) ] in
        let report =
          Runner.run_sync ~protocol ~inputs:(inputs 2)
            ~schedule:(Runner.crash_schedule ~plan) ~max_rounds:5
        in
        let values = List.map (fun (_, _, v) -> v) report.Runner.decisions in
        Alcotest.(check int) "two decide" 2 (List.length values);
        Alcotest.(check bool) "agreement" true
          (match values with [ a; b ] -> a = b | _ -> false));
    Alcotest.test_case "flooding consensus: exhaustive verification (n=2, f=1)" `Quick
      (fun () ->
        let protocol = Protocols.flood_consensus ~f:1 in
        let violations =
          Runner.check_sync_exhaustive ~protocol ~k_task:1 ~total_crashes:1
            ~inputs:(inputs 2) ~max_rounds:3
        in
        Alcotest.(check int) "no violations" 0 (List.length violations));
    Alcotest.test_case "flooding consensus with too few rounds breaks" `Quick
      (fun () ->
        (* decide after 1 round with f=1: agreement must fail somewhere *)
        let protocol = Protocol.decide_after_rounds 1 in
        let violations =
          Runner.check_sync_exhaustive ~protocol ~k_task:1 ~total_crashes:1
            ~inputs:(inputs 2) ~max_rounds:3
        in
        Alcotest.(check bool) "agreement violated" true
          (List.mem Runner.Agreement_violated violations));
    Alcotest.test_case "sync k-set: floor(f/k)+1 rounds suffice (exhaustive)" `Quick
      (fun () ->
        (* n=2 (3 processes), f=2, k=2: 2 rounds *)
        let protocol = Protocols.sync_kset ~f:2 ~k:2 in
        Alcotest.(check int) "rounds" 2 (Protocols.sync_kset_rounds ~f:2 ~k:2);
        let violations =
          Runner.check_sync_exhaustive ~protocol ~k_task:2 ~total_crashes:2
            ~inputs:(inputs 2) ~max_rounds:4
        in
        Alcotest.(check int) "no violations" 0 (List.length violations));
    Alcotest.test_case "sync k-set at the n <= f+k edge: 1 round tight" `Quick
      (fun () ->
        (* n=2, f=2, k=2: Theorem 18's bound is floor(f/k) = 1 round; the
           min-flooding protocol with 1 round is exhaustively safe, while
           deciding immediately (0 rounds) violates 2-agreement *)
        let one_round = Protocol.decide_after_rounds 1 in
        Alcotest.(check int) "1 round safe" 0
          (List.length
             (Runner.check_sync_exhaustive ~protocol:one_round ~k_task:2
                ~total_crashes:2 ~inputs:(inputs 2) ~max_rounds:3));
        let zero_rounds = Protocol.decide_after_rounds 0 in
        Alcotest.(check bool) "0 rounds violated" true
          (List.mem Runner.Agreement_violated
             (Runner.check_sync_exhaustive ~protocol:zero_rounds ~k_task:2
                ~total_crashes:2 ~inputs:(inputs 2) ~max_rounds:2)));
    Alcotest.test_case "async certainty protocol starves under the adversary" `Quick
      (fun () ->
        let protocol = Protocols.certainty_consensus ~n:2 in
        let schedule ~round:_ =
          Protocols.async_never_terminating_adversary ~n:2 ~victim:2
        in
        let report =
          Runner.run_async_with ~protocol ~inputs:(inputs 2) ~schedule ~rounds:8
        in
        (* P2's input never propagates: only P2 itself ever reaches
           certainty *)
        Alcotest.(check bool) "P0 and P1 never decide" true
          (List.for_all (fun (q, _, _) -> q = 2) report.Runner.decisions));
    Alcotest.test_case "async certainty protocol decides without adversary" `Quick
      (fun () ->
        let protocol = Protocols.certainty_consensus ~n:2 in
        let all = Pid.universe 2 in
        let schedule ~round:_ =
          List.fold_left (fun m q -> Pid.Map.add q all m) Pid.Map.empty (Pid.all 2)
        in
        let report =
          Runner.run_async_with ~protocol ~inputs:(inputs 2) ~schedule ~rounds:3
        in
        Alcotest.(check int) "all decide" 3 (List.length report.Runner.decisions);
        List.iter
          (fun (_, r, v) ->
            Alcotest.(check int) "round 1" 1 r;
            Alcotest.(check int) "value 0" 0 v)
          report.Runner.decisions);
    Alcotest.test_case "semi-sync consensus in the timed simulator" `Quick (fun () ->
        let cfg = { Sim.c1 = 1; c2 = 2; d = 2 } in
        let f = 1 in
        let protocol = Protocols.semi_sync_consensus ~f in
        let ds =
          Sim.decision_time cfg ~n:2 (Sim.lockstep cfg) ~protocol
            ~inputs:(inputs 2) ~horizon:20
        in
        Alcotest.(check int) "three decide" 3 (List.length ds);
        List.iter
          (fun (_, t, v) ->
            Alcotest.(check int) "time (f+1)d" ((f + 1) * cfg.Sim.d) t;
            Alcotest.(check int) "value" 0 v)
          ds;
        (* decision time respects the Corollary 22 lower bound *)
        let bound =
          Lower_bound.corollary22_time ~f ~k:1 ~c1:cfg.Sim.c1 ~c2:cfg.Sim.c2 ~d:cfg.Sim.d
        in
        List.iter
          (fun (_, t, _) ->
            Alcotest.(check bool) "above bound" true (float_of_int t >= bound))
          ds);
    Alcotest.test_case "Corollary 22 stretch: indistinguishability in the simulator"
      `Quick (fun () ->
        (* After the crash at the round boundary, the slow-solo survivor's
           observations up to r*d + C*d are exactly its lockstep
           observations up to (r+1)*d: it cannot tell the stretched run
           from the fast one, so it cannot decide before r*d + C*d. *)
        let cfg = { Sim.c1 = 1; c2 = 3; d = 3 } in
        let r = 1 in
        let after_step = r * Sim.microrounds cfg in
        let solo = Sim.run cfg ~n:2 (Sim.slow_solo cfg ~survivor:0 ~after_step) ~until:30 in
        let fast = Sim.run cfg ~n:2 (Sim.lockstep cfg) ~until:30 in
        let c = cfg.Sim.c2 / cfg.Sim.c1 in
        let t_solo = (r * cfg.Sim.d) + (c * cfg.Sim.d) in
        let t_fast = (r + 1) * cfg.Sim.d in
        Alcotest.(check bool) "indistinguishable" true
          (Sim.indistinguishable_to 0 (solo, t_solo) (fast, t_fast)));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let prop_tests =
  let open QCheck2 in
  [
    Test.make ~count:30 ~name:"flooding consensus safe under random crash plans"
      Gen.(
        let victim = int_range 0 2 in
        let round = int_range 1 2 in
        let dsts = list_size (int_range 0 2) (int_range 0 2) in
        triple victim round dsts)
      (fun (victim, round, dsts) ->
        let protocol = Protocols.flood_consensus ~f:1 in
        let plan = [ (round, victim, Pid.Set.of_list dsts) ] in
        let report =
          Runner.run_sync ~protocol ~inputs:(inputs 2)
            ~schedule:(Runner.crash_schedule ~plan) ~max_rounds:4
        in
        let values =
          List.sort_uniq Int.compare (List.map (fun (_, _, v) -> v) report.Runner.decisions)
        in
        List.length values <= 1);
    Test.make ~count:20 ~name:"theorem 18 bound is monotone in f"
      Gen.(pair (int_range 1 4) (int_range 1 2))
      (fun (f, k) ->
        let n = 8 in
        Lower_bound.theorem18_rounds ~n ~f ~k
        <= Lower_bound.theorem18_rounds ~n ~f:(f + 1) ~k);
    Test.make ~count:20 ~name:"corollary 22 time increases with C"
      Gen.(pair (int_range 1 4) (int_range 1 3))
      (fun (f, c2) ->
        Lower_bound.corollary22_time ~f ~k:1 ~c1:1 ~c2 ~d:10
        <= Lower_bound.corollary22_time ~f ~k:1 ~c1:1 ~c2:(c2 + 1) ~d:10);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ("agreement.task", task_tests);
    ("agreement.decision", decision_tests);
    ("agreement.lower_bound", lower_bound_tests);
    ("agreement.protocols", protocol_tests);
    ("agreement.properties", prop_tests);
  ]
