(* Tests for the message-passing model substrate. *)

open Psph_topology
open Psph_model

let inputs3 = [ (0, 0); (1, 1); (2, 2) ]

let view_testable = Alcotest.testable View.pp View.equal

(* ------------------------------------------------------------------ *)
(* Value / View                                                        *)
(* ------------------------------------------------------------------ *)

let view_tests =
  [
    Alcotest.test_case "value domain" `Quick (fun () ->
        Alcotest.(check (list int)) "domain" [ 0; 1; 2 ] (Value.domain 2));
    Alcotest.test_case "value label round-trip" `Quick (fun () ->
        Alcotest.(check int) "rt" 7 (Value.of_label (Value.to_label 7)));
    Alcotest.test_case "init view basics" `Quick (fun () ->
        let v = View.init 3 in
        Alcotest.(check int) "rounds" 0 (View.rounds v);
        Alcotest.(check int) "input" 3 (View.input v);
        Alcotest.(check bool) "seen" true
          (Value.Set.equal (View.seen_values v) (Value.Set.singleton 3)));
    Alcotest.test_case "round view accumulates" `Quick (fun () ->
        let a = View.init 0 and b = View.init 1 in
        let v = View.round ~prev:a ~heard:[ (0, a); (1, b) ] in
        Alcotest.(check int) "rounds" 1 (View.rounds v);
        Alcotest.(check int) "input" 0 (View.input v);
        Alcotest.(check bool) "seen {0,1}" true
          (Value.Set.equal (View.seen_values v) (Value.Set.of_list [ 0; 1 ]));
        Alcotest.(check bool) "heard" true
          (Pid.Set.equal (View.heard_pids v) (Pid.Set.of_list [ 0; 1 ])));
    Alcotest.test_case "round sorts heard by sender" `Quick (fun () ->
        let a = View.init 0 and b = View.init 1 in
        let v1 = View.round ~prev:a ~heard:[ (1, b); (0, a) ] in
        let v2 = View.round ~prev:a ~heard:[ (0, a); (1, b) ] in
        Alcotest.check view_testable "equal" v1 v2);
    Alcotest.test_case "duplicate senders rejected" `Quick (fun () ->
        let a = View.init 0 in
        Alcotest.check_raises "raises"
          (Invalid_argument "View: duplicate senders in heard list") (fun () ->
            ignore (View.round ~prev:a ~heard:[ (0, a); (0, a) ])));
    Alcotest.test_case "timed round mu range checked" `Quick (fun () ->
        let a = View.init 0 in
        Alcotest.check_raises "raises"
          (Invalid_argument "View.timed_round: mu out of range") (fun () ->
            ignore (View.timed_round ~p:2 ~prev:a ~heard:[ (0, 3, a) ])));
    Alcotest.test_case "label round-trip (round view)" `Quick (fun () ->
        let a = View.init 0 and b = View.init 1 in
        let v =
          View.round ~heard:[ (0, a); (1, b) ]
            ~prev:(View.round ~prev:a ~heard:[ (0, a) ])
        in
        Alcotest.check view_testable "rt" v (View.of_label (View.to_label v)));
    Alcotest.test_case "label round-trip (timed view)" `Quick (fun () ->
        let a = View.init 0 and b = View.init 1 in
        let v = View.timed_round ~p:3 ~prev:a ~heard:[ (0, 3, a); (1, 2, b) ] in
        Alcotest.check view_testable "rt" v (View.of_label (View.to_label v)));
    Alcotest.test_case "views with different heard states differ" `Quick (fun () ->
        let a = View.init 0 and b = View.init 1 in
        let v1 = View.round ~prev:a ~heard:[ (1, b) ] in
        let v2 = View.round ~prev:a ~heard:[ (1, a) ] in
        Alcotest.(check bool) "differ" false (View.equal v1 v2));
    Alcotest.test_case "seen_pids transitively" `Quick (fun () ->
        let a = View.init 0 and b = View.init 1 in
        let ab = View.round ~prev:a ~heard:[ (0, a); (1, b) ] in
        let v = View.round ~prev:b ~heard:[ (0, ab); (1, b) ] in
        Alcotest.(check bool) "0 and 1 seen" true
          (Pid.Set.equal (View.seen_pids v) (Pid.Set.of_list [ 0; 1 ])));
  ]

(* The round builders encode a round straight from the previous round's
   labels; that must be exactly the label of the decoded view's round.
   Heard lists come in random order with distinct senders, so the
   encoders' sorting is exercised too. *)
let gen_senders =
  QCheck2.Gen.(
    pair (shuffle_l [ 0; 1; 2; 3 ]) (int_range 0 4)
    |> map (fun (ps, k) -> List.filteri (fun i _ -> i < k) ps))

let rec gen_view depth =
  let open QCheck2.Gen in
  let init = map View.init (int_range 0 2) in
  if depth = 0 then init
  else
    let sub = gen_view (depth - 1) in
    frequency
      [
        (1, init);
        (2, map2 (fun prev heard -> View.round ~prev ~heard) sub (gen_heard sub));
        ( 2,
          int_range 0 3 >>= fun p ->
          map2 (fun prev heard -> View.timed_round ~p ~prev ~heard) sub (gen_timed ~p sub)
        );
      ]

and gen_heard sub =
  QCheck2.Gen.(
    gen_senders >>= fun ps ->
    flatten_l (List.map (fun q -> map (fun s -> (q, s)) sub) ps))

and gen_timed ~p sub =
  QCheck2.Gen.(
    gen_senders >>= fun ps ->
    flatten_l (List.map (fun q -> map2 (fun mu s -> (q, mu, s)) (int_range 0 p) sub) ps))

let encoding_props =
  let open QCheck2 in
  let print_views (prev, heard) =
    Format.asprintf "%a | %a" View.pp prev
      (Format.pp_print_list (fun ppf (q, s) -> Format.fprintf ppf "%d<-%a" q View.pp s))
      heard
  in
  [
    Test.make ~count:200 ~name:"round_label = to_label (round ..)" ~print:print_views
      Gen.(pair (gen_view 2) (gen_heard (gen_view 2)))
      (fun (prev, heard) ->
        Label.equal
          (View.round_label ~prev:(View.to_label prev)
             ~heard:(List.map (fun (q, s) -> (q, View.to_label s)) heard))
          (View.to_label (View.round ~prev ~heard)));
    Test.make ~count:200 ~name:"timed_round_label = to_label (timed_round ..)"
      Gen.(
        int_range 0 3 >>= fun p ->
        map2 (fun prev heard -> (p, prev, heard)) (gen_view 2) (gen_timed ~p (gen_view 2)))
      (fun (p, prev, heard) ->
        Label.equal
          (View.timed_round_label ~p ~prev:(View.to_label prev)
             ~heard:(List.map (fun (q, mu, s) -> (q, mu, View.to_label s)) heard))
          (View.to_label (View.timed_round ~p ~prev ~heard)));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Failure patterns                                                    *)
(* ------------------------------------------------------------------ *)

let failure_tests =
  [
    Alcotest.test_case "subsets_of_size" `Quick (fun () ->
        let u = Pid.Set.of_list [ 0; 1; 2 ] in
        Alcotest.(check int) "pairs" 3 (List.length (Failure.subsets_of_size u 2));
        Alcotest.(check int) "singletons" 3 (List.length (Failure.subsets_of_size u 1));
        Alcotest.(check int) "empty" 1 (List.length (Failure.subsets_of_size u 0)));
    Alcotest.test_case "subsets_of_size_at_most ordering" `Quick (fun () ->
        let u = Pid.Set.of_list [ 0; 1; 2 ] in
        let subs = Failure.subsets_of_size_at_most u 2 in
        Alcotest.(check int) "count" 7 (List.length subs);
        (* sorted by size then lexicographically *)
        let sizes = List.map Pid.Set.cardinal subs in
        Alcotest.(check (list int)) "sizes" [ 0; 1; 1; 1; 2; 2; 2 ] sizes;
        match subs with
        | _ :: s1 :: _ ->
            Alcotest.(check bool) "first singleton is {0}" true
              (Pid.Set.equal s1 (Pid.Set.singleton 0))
        | _ -> Alcotest.fail "unexpected");
    Alcotest.test_case "choosing 39 of 40 lists 40 sets" `Quick (fun () ->
        (* each branch left with fewer elements than it still needs is cut:
           without that the walk takes exponential time here *)
        let u = Pid.Set.of_list (List.init 40 Fun.id) in
        let subs = Failure.subsets_of_size u 39 in
        Alcotest.(check int) "count" 40 (List.length subs);
        Alcotest.(check bool) "all of size 39" true
          (List.for_all (fun s -> Pid.Set.cardinal s = 39) subs));
    Alcotest.test_case "power_set size" `Quick (fun () ->
        Alcotest.(check int) "2^3" 8
          (List.length (Failure.power_set (Pid.Set.of_list [ 0; 1; 2 ]))));
    Alcotest.test_case "all_patterns count and order" `Quick (fun () ->
        let k = Pid.Set.of_list [ 0; 1 ] in
        let pats = Failure.all_patterns ~p:3 k in
        Alcotest.(check int) "3^2" 9 (List.length pats);
        (* reverse-lex: first pattern fails everything at microround p *)
        match pats with
        | first :: _ ->
            Alcotest.(check int) "P0 at p" 3 (Pid.Map.find 0 first.Failure.at);
            Alcotest.(check int) "P1 at p" 3 (Pid.Map.find 1 first.Failure.at)
        | [] -> Alcotest.fail "empty");
    Alcotest.test_case "last pattern fails at microround 1" `Quick (fun () ->
        let k = Pid.Set.of_list [ 0; 1 ] in
        let pats = Failure.all_patterns ~p:3 k in
        let last = List.nth pats (List.length pats - 1) in
        Alcotest.(check int) "P0 at 1" 1 (Pid.Map.find 0 last.Failure.at);
        Alcotest.(check int) "P1 at 1" 1 (Pid.Map.find 1 last.Failure.at));
    Alcotest.test_case "[F] views: size 2^|K|" `Quick (fun () ->
        let alive = Pid.Set.of_list [ 0; 1; 2 ] in
        let pat = Failure.pattern [ (1, 2); (2, 1) ] in
        let vs = Failure.views ~p:2 ~n:2 ~alive pat in
        Alcotest.(check int) "count" 4 (List.length vs);
        List.iter
          (fun v ->
            Alcotest.(check int) "live entry" 2 v.(0);
            Alcotest.(check bool) "P1 in {1,2}" true (v.(1) = 1 || v.(1) = 2);
            Alcotest.(check bool) "P2 in {0,1}" true (v.(2) = 0 || v.(2) = 1))
          vs);
    Alcotest.test_case "[F] marks dead processes 0" `Quick (fun () ->
        let alive = Pid.Set.of_list [ 0; 1 ] in
        let pat = Failure.pattern [ (1, 2) ] in
        let vs = Failure.views ~p:2 ~n:2 ~alive pat in
        List.iter (fun v -> Alcotest.(check int) "P2 dead" 0 v.(2)) vs);
    Alcotest.test_case "[F^j] halves [F]" `Quick (fun () ->
        let alive = Pid.Set.of_list [ 0; 1; 2 ] in
        let pat = Failure.pattern [ (1, 2); (2, 1) ] in
        let up = Failure.views_up ~p:2 ~n:2 ~alive pat 1 in
        Alcotest.(check int) "count" 2 (List.length up);
        List.iter (fun v -> Alcotest.(check int) "mu_1 = F(1)" 2 v.(1)) up);
    Alcotest.test_case "views_up rejects non-failed pid" `Quick (fun () ->
        let alive = Pid.Set.of_list [ 0; 1 ] in
        let pat = Failure.pattern [ (1, 1) ] in
        Alcotest.check_raises "raises"
          (Invalid_argument "Failure.views_up: pid not in failure set") (fun () ->
            ignore (Failure.views_up ~p:2 ~n:1 ~alive pat 0)));
    Alcotest.test_case "pattern with duplicates rejected" `Quick (fun () ->
        Alcotest.check_raises "raises"
          (Invalid_argument "Failure.pattern: duplicate pids") (fun () ->
            ignore (Failure.pattern [ (0, 1); (0, 2) ])));
  ]

(* ------------------------------------------------------------------ *)
(* Round schedules                                                     *)
(* ------------------------------------------------------------------ *)

let schedule_tests =
  let alive3 = Pid.Set.of_list [ 0; 1; 2 ] in
  [
    Alcotest.test_case "async schedule count matches closed form" `Quick (fun () ->
        List.iter
          (fun (n, f) ->
            let got =
              List.length (Round_schedule.async_schedules ~n ~f ~alive:(Pid.universe n))
            in
            let want = Round_schedule.async_count ~n ~f ~alive_count:(n + 1) in
            Alcotest.(check int) (Printf.sprintf "n=%d f=%d" n f) want got)
          [ (1, 1); (2, 1); (2, 2) ]);
    Alcotest.test_case "async schedules respect n-f+1 and self" `Quick (fun () ->
        List.iter
          (fun sched ->
            Pid.Map.iter
              (fun q heard ->
                Alcotest.(check bool) "self" true (Pid.Set.mem q heard);
                Alcotest.(check bool) "size" true (Pid.Set.cardinal heard >= 2))
              sched)
          (Round_schedule.async_schedules ~n:2 ~f:1 ~alive:alive3));
    Alcotest.test_case "async empty when too few alive" `Quick (fun () ->
        Alcotest.(check int) "empty" 0
          (List.length
             (Round_schedule.async_schedules ~n:2 ~f:1
                ~alive:(Pid.Set.singleton 0))));
    Alcotest.test_case "sync schedule count matches closed form" `Quick (fun () ->
        List.iter
          (fun (n, k) ->
            let got =
              List.length (Round_schedule.sync_schedules ~k ~alive:(Pid.universe n))
            in
            let want = Round_schedule.sync_count ~k ~alive_count:(n + 1) in
            Alcotest.(check int) (Printf.sprintf "n=%d k=%d" n k) want got)
          [ (1, 1); (2, 1); (2, 2); (3, 1) ]);
    Alcotest.test_case "sync schedules for fixed K" `Quick (fun () ->
        let scheds =
          Round_schedule.sync_schedules_for ~failed:(Pid.Set.singleton 2) ~alive:alive3
        in
        (* two survivors, each hears or misses P2: 4 schedules *)
        Alcotest.(check int) "count" 4 (List.length scheds));
    Alcotest.test_case "semi schedule count matches closed form" `Quick (fun () ->
        List.iter
          (fun (n, k, p) ->
            let got =
              List.length
                (Round_schedule.semi_schedules ~k ~p ~n ~alive:(Pid.universe n))
            in
            let want = Round_schedule.semi_count ~k ~p ~alive_count:(n + 1) in
            Alcotest.(check int) (Printf.sprintf "n=%d k=%d p=%d" n k p) want got)
          [ (1, 1, 2); (2, 1, 2); (2, 1, 3); (2, 2, 2) ]);
    Alcotest.test_case "semi failure-free schedule is unique" `Quick (fun () ->
        let scheds =
          Round_schedule.semi_schedules_for
            ~pat:(Failure.pattern []) ~p:2 ~n:2 ~alive:alive3
        in
        Alcotest.(check int) "count" 1 (List.length scheds));
  ]

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let execution_tests =
  [
    Alcotest.test_case "initial global state" `Quick (fun () ->
        let g = Execution.initial inputs3 in
        Alcotest.(check int) "alive" 3 (Pid.Set.cardinal (Execution.alive g));
        Alcotest.check view_testable "P1" (View.init 1) (Pid.Map.find 1 g));
    Alcotest.test_case "one async round, full hearing" `Quick (fun () ->
        let g = Execution.initial inputs3 in
        let sched =
          List.fold_left
            (fun m q -> Pid.Map.add q (Pid.Set.of_list [ 0; 1; 2 ]) m)
            Pid.Map.empty [ 0; 1; 2 ]
        in
        let g' = Execution.apply_async g sched in
        Pid.Map.iter
          (fun _ v ->
            Alcotest.(check bool) "saw all" true
              (Value.Set.equal (View.seen_values v) (Value.Set.of_list [ 0; 1; 2 ])))
          g');
    Alcotest.test_case "sync round crashes remove processes" `Quick (fun () ->
        let g = Execution.initial inputs3 in
        let sched =
          {
            Round_schedule.failed = Pid.Set.singleton 2;
            heard_faulty =
              Pid.Map.of_seq (List.to_seq [ (0, Pid.Set.singleton 2); (1, Pid.Set.empty) ]);
          }
        in
        let g' = Execution.apply_sync g sched in
        Alcotest.(check int) "two left" 2 (Pid.Set.cardinal (Execution.alive g'));
        let v0 = Pid.Map.find 0 g' and v1 = Pid.Map.find 1 g' in
        Alcotest.(check bool) "P0 heard P2" true (Pid.Set.mem 2 (View.heard_pids v0));
        Alcotest.(check bool) "P1 missed P2" false (Pid.Set.mem 2 (View.heard_pids v1)));
    Alcotest.test_case "semi round builds timed views" `Quick (fun () ->
        let g = Execution.initial inputs3 in
        let pat = Failure.pattern [ (2, 1) ] in
        let vec = [| 2; 2; 1 |] in
        let sched =
          {
            Round_schedule.pat;
            choice = Pid.Map.of_seq (List.to_seq [ (0, vec); (1, vec) ]);
          }
        in
        let g' = Execution.apply_semi ~p:2 ~n:2 g sched in
        Alcotest.(check int) "two left" 2 (Pid.Set.cardinal (Execution.alive g'));
        match Pid.Map.find 0 g' with
        | View.Timed_round { p; heard; _ } ->
            Alcotest.(check int) "p" 2 p;
            Alcotest.(check int) "heard 3" 3 (List.length heard)
        | _ -> Alcotest.fail "expected timed view");
    Alcotest.test_case "run_sync execution count r=1" `Quick (fun () ->
        let gs = Execution.run_sync ~k:1 ~rounds:1 (Execution.initial inputs3) in
        Alcotest.(check int) "count" (Round_schedule.sync_count ~k:1 ~alive_count:3)
          (List.length gs));
    Alcotest.test_case "run_async keeps everyone alive" `Quick (fun () ->
        let gs = Execution.run_async ~n:2 ~f:1 ~rounds:2 (Execution.initial inputs3) in
        List.iter
          (fun g -> Alcotest.(check int) "alive" 3 (Pid.Set.cardinal (Execution.alive g)))
          gs);
  ]

(* ------------------------------------------------------------------ *)
(* Priority queue                                                      *)
(* ------------------------------------------------------------------ *)

let pqueue_tests =
  [
    Alcotest.test_case "orders by key" `Quick (fun () ->
        let q = Pqueue.(empty |> push 3 "c" |> push 1 "a" |> push 2 "b") in
        let rec drain q acc =
          match Pqueue.pop q with
          | None -> List.rev acc
          | Some ((_, x), q') -> drain q' (x :: acc)
        in
        Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (drain q []));
    Alcotest.test_case "fifo among equal keys" `Quick (fun () ->
        let q = Pqueue.(empty |> push 1 "first" |> push 1 "second" |> push 1 "third") in
        let rec drain q acc =
          match Pqueue.pop q with
          | None -> List.rev acc
          | Some ((_, x), q') -> drain q' (x :: acc)
        in
        Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] (drain q []));
    Alcotest.test_case "size tracking" `Quick (fun () ->
        let q = Pqueue.(empty |> push 1 () |> push 2 ()) in
        Alcotest.(check int) "2" 2 (Pqueue.size q);
        match Pqueue.pop q with
        | Some (_, q') -> Alcotest.(check int) "1" 1 (Pqueue.size q')
        | None -> Alcotest.fail "pop");
    Alcotest.test_case "empty pops None" `Quick (fun () ->
        Alcotest.(check bool) "none" true (Pqueue.pop Pqueue.empty = None));
  ]

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let sim_tests =
  let cfg = { Sim.c1 = 1; c2 = 3; d = 2 } in
  [
    Alcotest.test_case "microrounds and uncertainty" `Quick (fun () ->
        Alcotest.(check int) "p" 2 (Sim.microrounds cfg);
        Alcotest.(check (float 0.001)) "C" 3.0 (Sim.uncertainty cfg);
        Alcotest.(check int) "p ceil" 3 (Sim.microrounds { cfg with d = 5; c1 = 2 }));
    Alcotest.test_case "lockstep: steps every c1" `Quick (fun () ->
        let trace = Sim.run cfg ~n:1 (Sim.lockstep cfg) ~until:6 in
        let steps =
          List.filter_map
            (function Sim.Stepped { time; _ } -> Some time | Sim.Received _ -> None)
            (Pid.Map.find 0 trace)
        in
        Alcotest.(check (list int)) "times" [ 1; 2; 3; 4; 5; 6 ] steps);
    Alcotest.test_case "lockstep: deliveries at round boundaries" `Quick (fun () ->
        let trace = Sim.run cfg ~n:1 (Sim.lockstep cfg) ~until:4 in
        List.iter
          (fun (_, evs) ->
            List.iter
              (function
                | Sim.Received { time; _ } ->
                    Alcotest.(check int) "boundary" 0 (time mod cfg.d)
                | Sim.Stepped _ -> ())
              evs)
          (Pid.Map.bindings trace));
    Alcotest.test_case "delays never exceed d" `Quick (fun () ->
        let adv = Sim.lockstep cfg in
        let adv = { adv with Sim.delay = (fun ~src:_ ~dst:_ ~step:_ -> 99) } in
        let trace = Sim.run cfg ~n:1 adv ~until:8 in
        List.iter
          (fun (_, evs) ->
            List.iter
              (function
                | Sim.Received { time; sent_step; _ } ->
                    (* lockstep sender: sent at sent_step * c1 *)
                    Alcotest.(check bool) "<= d" true (time - (sent_step * cfg.c1) <= cfg.d)
                | Sim.Stepped _ -> ())
              evs)
          (Pid.Map.bindings trace));
    Alcotest.test_case "fifo per channel" `Quick (fun () ->
        (* adversarial decreasing delays must not reorder messages *)
        let adv = Sim.lockstep cfg in
        let adv =
          { adv with Sim.delay = (fun ~src:_ ~dst:_ ~step -> max 1 (cfg.d - step)) }
        in
        let trace = Sim.run { cfg with d = 4 } ~n:1 adv ~until:20 in
        List.iter
          (fun (_, evs) ->
            let per_src = Hashtbl.create 4 in
            List.iter
              (function
                | Sim.Received { src; sent_step; _ } ->
                    let prev =
                      Option.value ~default:0 (Hashtbl.find_opt per_src src)
                    in
                    Alcotest.(check bool) "fifo" true (sent_step > prev);
                    Hashtbl.replace per_src src sent_step
                | Sim.Stepped _ -> ())
              evs)
          (Pid.Map.bindings trace));
    Alcotest.test_case "crashes stop steps and drop sends" `Quick (fun () ->
        let crash = { Sim.at_step = 2; deliver_final_to = Pid.Set.empty } in
        let adv = Sim.lockstep_with_crashes cfg [ (1, crash) ] in
        let trace = Sim.run cfg ~n:1 adv ~until:10 in
        let p1_steps =
          List.filter_map
            (function Sim.Stepped { step; _ } -> Some step | Sim.Received _ -> None)
            (Pid.Map.find 1 trace)
        in
        Alcotest.(check (list int)) "steps" [ 1; 2 ] p1_steps;
        (* P0 receives only P1's step-1 message (final send suppressed) *)
        let from_p1 =
          List.filter_map
            (function
              | Sim.Received { src = 1; sent_step; _ } -> Some sent_step
              | Sim.Received _ | Sim.Stepped _ -> None)
            (Pid.Map.find 0 trace)
        in
        Alcotest.(check (list int)) "only step 1" [ 1 ] from_p1);
    Alcotest.test_case "partial final send honours deliver_final_to" `Quick (fun () ->
        let crash = { Sim.at_step = 2; deliver_final_to = Pid.Set.singleton 0 } in
        let adv = Sim.lockstep_with_crashes cfg [ (2, crash) ] in
        let trace = Sim.run cfg ~n:2 adv ~until:10 in
        let got q =
          List.filter_map
            (function
              | Sim.Received { src = 2; sent_step; _ } -> Some sent_step
              | Sim.Received _ | Sim.Stepped _ -> None)
            (Pid.Map.find q trace)
        in
        Alcotest.(check (list int)) "P0 got both" [ 1; 2 ] (got 0);
        Alcotest.(check (list int)) "P1 got first only" [ 1 ] (got 1));
    Alcotest.test_case "indistinguishability: same run" `Quick (fun () ->
        let t = Sim.run cfg ~n:2 (Sim.lockstep cfg) ~until:8 in
        Alcotest.(check bool) "self" true (Sim.indistinguishable_to 0 (t, 5) (t, 5)));
    Alcotest.test_case "slow solo is blind after the crash" `Quick (fun () ->
        (* Corollary 22's stretch in miniature: survivor's observations in
           the slow-solo run up to r*d + C*d are a prefix of its lockstep
           observations *)
        let cfg = { Sim.c1 = 1; c2 = 2; d = 2 } in
        let after_step = 2 (* end of round 1 *) in
        let solo = Sim.run cfg ~n:2 (Sim.slow_solo cfg ~survivor:0 ~after_step) ~until:10 in
        let fast = Sim.run cfg ~n:2 (Sim.lockstep cfg) ~until:10 in
        (* up to the first round boundary both runs look the same to P0 *)
        Alcotest.(check bool) "indist before crash" true
          (Sim.indistinguishable_to 0 (solo, 3) (fast, 3)));
    Alcotest.test_case "decision_time: flooding decides at (f+1)d" `Quick (fun () ->
        let cfg = { Sim.c1 = 1; c2 = 1; d = 2 } in
        let protocol = Protocol.decide_after_rounds 2 in
        let ds =
          Sim.decision_time cfg ~n:2 (Sim.lockstep cfg) ~protocol
            ~inputs:inputs3 ~horizon:10
        in
        Alcotest.(check int) "three deciders" 3 (List.length ds);
        List.iter
          (fun (_, t, v) ->
            Alcotest.(check int) "time 2d" 4 t;
            Alcotest.(check int) "min value" 0 v)
          ds);
  ]

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let protocol_tests =
  [
    Alcotest.test_case "min_seen" `Quick (fun () ->
        let a = View.init 2 and b = View.init 1 in
        let v = View.round ~prev:a ~heard:[ (0, a); (1, b) ] in
        Alcotest.(check int) "min" 1 (Protocol.min_seen v));
    Alcotest.test_case "decide_after_rounds waits" `Quick (fun () ->
        let p = Protocol.decide_after_rounds 2 in
        let a = View.init 5 in
        let v1 = View.round ~prev:a ~heard:[ (0, a) ] in
        let v2 = View.round ~prev:v1 ~heard:[ (0, v1) ] in
        Alcotest.(check bool) "round 0" true (p.Protocol.decide a = None);
        Alcotest.(check bool) "round 1" true (p.Protocol.decide v1 = None);
        Alcotest.(check bool) "round 2" true (p.Protocol.decide v2 = Some 5));
    Alcotest.test_case "full information never decides" `Quick (fun () ->
        let p = Protocol.full_information_never_decide in
        Alcotest.(check bool) "none" true (p.Protocol.decide (View.init 0) = None));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let gen_view =
  (* random small views over 3 processes *)
  let open QCheck2.Gen in
  let rec gen depth =
    if depth = 0 then map View.init (int_range 0 3)
    else
      let* prev = gen (depth - 1) in
      let* heard_of =
        List.map
          (fun q ->
            let* present = bool in
            if present then
              let* s = gen (depth - 1) in
              return (Some (q, s))
            else return None)
          [ 0; 1; 2 ]
        |> flatten_l
      in
      return (View.round ~prev ~heard:(List.filter_map Fun.id heard_of))
  in
  int_range 0 2 >>= gen

let prop_tests =
  let open QCheck2 in
  [
    Test.make ~count:80 ~name:"view label round-trip" gen_view (fun v ->
        View.equal v (View.of_label (View.to_label v)));
    Test.make ~count:80 ~name:"view compare reflexive" gen_view (fun v ->
        View.compare v v = 0);
    Test.make ~count:80 ~name:"seen_values contains own input" gen_view (fun v ->
        Value.Set.mem (View.input v) (View.seen_values v));
    Test.make ~count:80 ~name:"rounds counts nesting" gen_view (fun v ->
        View.rounds v >= 0 && View.rounds v <= 2);
    Test.make ~count:50 ~name:"pqueue pops sorted"
      Gen.(list_size (int_range 0 40) (int_range 0 100))
      (fun keys ->
        let q = List.fold_left (fun q k -> Pqueue.push k k q) Pqueue.empty keys in
        let rec drain q acc =
          match Pqueue.pop q with
          | None -> List.rev acc
          | Some ((_, x), q') -> drain q' (x :: acc)
        in
        drain q [] = List.sort Int.compare keys);
    Test.make ~count:40 ~name:"async schedules match closed form"
      Gen.(pair (int_range 1 2) (int_range 1 2))
      (fun (n, f) ->
        let f = min f n in
        List.length (Round_schedule.async_schedules ~n ~f ~alive:(Pid.universe n))
        = Round_schedule.async_count ~n ~f ~alive_count:(n + 1));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* the subsets of exactly [k] elements, as a power set listed by bit mask
   (sharing no code with [Failure]) filtered by size, in lex order *)
let reference_subsets univ k =
  let elems = Array.of_list (Pid.Set.elements univ) in
  let n = Array.length elems in
  List.init (1 lsl n) (fun mask ->
      Pid.Set.of_list
        (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list elems)))
  |> List.filter (fun s -> Pid.Set.cardinal s = k)
  |> List.sort Pid.Set.compare_lex

let failure_props =
  let open QCheck2 in
  [
    Test.make ~count:200 ~name:"subsets_of_size = the filtered power set (n <= 10)"
      Gen.(
        list_size (int_range 0 10) (int_range 0 15) >>= fun pids ->
        let univ = Pid.Set.of_list pids in
        int_range (-1) (Pid.Set.cardinal univ + 1) |> map (fun k -> (univ, k)))
      (fun (univ, k) ->
        List.equal Pid.Set.equal (Failure.subsets_of_size univ k)
          (reference_subsets univ k));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ("model.view", view_tests @ encoding_props);
    ("model.failure", failure_tests @ failure_props);
    ("model.schedule", schedule_tests);
    ("model.execution", execution_tests);
    ("model.pqueue", pqueue_tests);
    ("model.sim", sim_tests);
    ("model.protocol", protocol_tests);
    ("model.properties", prop_tests);
  ]
