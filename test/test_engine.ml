(* The query engine against the ground truth: results must equal direct
   Homology computations on random complexes — including the cache-hit
   path, where the second query must return the identical answer — and the
   substrate pieces (canonical keys, LRU, worker pool, store, wire
   protocol) get their own units. *)

open Psph_topology
open Pseudosphere
module E = Psph_engine.Engine
module Key = Psph_engine.Key
module Lru = Psph_engine.Lru
module Pool = Psph_engine.Pool
module Store = Psph_engine.Store
module Jsonl = Psph_obs.Jsonl
module Obs = Psph_obs.Obs
module Serve = Psph_engine.Serve

let v = Vertex.anon

let sx l = Simplex.of_list (List.map v l)

let cx ls = Complex.of_facets (List.map sx ls)

let obj_field name line =
  match Jsonl.of_string line with
  | Jsonl.Obj _ as o -> Jsonl.member name o
  | _ -> None

(* one shared engine with real worker domains; shut down by the last case *)
let engine =
  lazy (E.create ~domains:2 ~capacity:256 ())

(* ------------------------------------------------------------------ *)
(* canonical keys                                                      *)
(* ------------------------------------------------------------------ *)

let key_tests =
  [
    Alcotest.test_case "equal complexes, different build orders, same key" `Quick
      (fun () ->
        let a = cx [ [ 0; 1; 2 ]; [ 2; 3 ] ] in
        let b = cx [ [ 2; 3 ]; [ 0; 1; 2 ] ] in
        Alcotest.(check bool)
          "keys equal" true
          (Key.equal (Key.of_complex a) (Key.of_complex b)));
    Alcotest.test_case "facet split changes the key" `Quick (fun () ->
        (* same 1-skeleton, different facet structure *)
        let solid = cx [ [ 0; 1; 2 ] ] in
        let hollow = cx [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ] in
        Alcotest.(check bool)
          "keys differ" false
          (Key.equal (Key.of_complex solid) (Key.of_complex hollow)));
    Alcotest.test_case "hex round-trip" `Quick (fun () ->
        let k = Key.of_complex (cx [ [ 0; 1 ]; [ 2 ] ]) in
        match Key.of_hex_opt (Key.to_hex k) with
        | Some k' -> Alcotest.(check bool) "equal" true (Key.equal k k')
        | None -> Alcotest.fail "hex did not parse");
    Alcotest.test_case "bad hex rejected" `Quick (fun () ->
        Alcotest.(check bool) "short" true (Key.of_hex_opt "abc" = None);
        Alcotest.(check bool)
          "nonhex" true
          (Key.of_hex_opt (String.make 32 'z') = None));
  ]

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let lru_tests =
  [
    (* exact-count assertions need per-test metric prefixes: the Obs
       registry is process-global, so two Lrus sharing a prefix share
       counters *)
    Alcotest.test_case "eviction order is least-recently-used" `Quick (fun () ->
        let l = Lru.create ~metrics:"test.lru.evict" ~capacity:2 () in
        Lru.add l "a" 1;
        Lru.add l "b" 2;
        ignore (Lru.find_opt l "a");
        (* touches a, so b is now LRU *)
        Lru.add l "c" 3;
        Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find_opt l "a");
        Alcotest.(check (option int)) "b evicted" None (Lru.find_opt l "b");
        Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find_opt l "c");
        Alcotest.(check int) "one eviction" 1 (Lru.evictions l));
    Alcotest.test_case "counters track hits and misses" `Quick (fun () ->
        let l = Lru.create ~metrics:"test.lru.counts" ~capacity:4 () in
        Lru.add l 1 "x";
        ignore (Lru.find_opt l 1);
        ignore (Lru.find_opt l 2);
        Alcotest.(check int) "hits" 1 (Lru.hits l);
        Alcotest.(check int) "misses" 1 (Lru.misses l));
    Alcotest.test_case "overwrite keeps length" `Quick (fun () ->
        let l = Lru.create ~capacity:4 () in
        Lru.add l 1 "x";
        Lru.add l 1 "y";
        Alcotest.(check int) "length" 1 (Lru.length l);
        Alcotest.(check (option string)) "newest" (Some "y") (Lru.find_opt l 1));
    Alcotest.test_case "to_list is MRU first" `Quick (fun () ->
        let l = Lru.create ~capacity:4 () in
        Lru.add l 1 ();
        Lru.add l 2 ();
        Lru.add l 3 ();
        Alcotest.(check (list int))
          "order" [ 3; 2; 1 ]
          (List.map fst (Lru.to_list l)));
  ]

(* ------------------------------------------------------------------ *)
(* worker pool                                                         *)
(* ------------------------------------------------------------------ *)

let pool_tests =
  let inline_c = Obs.counter "pool.inline" in
  [
    Alcotest.test_case "a raising job does not kill its worker" `Quick
      (fun () ->
        let p = Pool.create ~domains:1 () in
        let jobs0 = Pool.jobs_run p in
        let ran = Atomic.make false in
        Pool.dispatch p (fun () -> failwith "boom");
        Pool.dispatch p (fun () -> Atomic.set ran true);
        (* shutdown drains the queue, and re-raises if a worker died *)
        Pool.shutdown p;
        Alcotest.(check bool) "the next job ran" true (Atomic.get ran);
        Alcotest.(check int) "both dequeued" 2 (Pool.jobs_run p - jobs0));
    Alcotest.test_case "zero domains runs inline" `Quick (fun () ->
        let p = Pool.create ~domains:0 () in
        let inline0 = Obs.counter_value inline_c in
        let r = ref 0 in
        Pool.dispatch p (fun () -> r := 7);
        Alcotest.(check int) "ran before dispatch returned" 7 !r;
        Alcotest.(check int) "counted inline" 1
          (Obs.counter_value inline_c - inline0);
        Pool.shutdown p);
    Alcotest.test_case "dispatch after shutdown runs inline" `Quick (fun () ->
        let p = Pool.create ~domains:2 () in
        Pool.shutdown p;
        let r = ref 0 in
        Pool.dispatch p (fun () -> r := 7);
        Alcotest.(check int) "ran inline" 7 !r;
        Alcotest.(check int) "no workers left" 0 (Pool.size p));
  ]

(* ------------------------------------------------------------------ *)
(* store persistence                                                   *)
(* ------------------------------------------------------------------ *)

let store_tests =
  [
    Alcotest.test_case "save/load round-trips entries" `Quick (fun () ->
        let entries =
          [
            (Key.of_complex (cx [ [ 0; 1; 2 ] ]),
             { Store.betti = [| 1; 0; 0 |]; connectivity = 2 });
            (Key.of_complex Complex.empty,
             { Store.betti = [||]; connectivity = -2 });
          ]
        in
        let path = Filename.temp_file "psph_store" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Store.save path entries;
            let loaded = Store.load path in
            Alcotest.(check int) "count" 2 (List.length loaded);
            List.iter2
              (fun (k, (e : Store.entry)) (k', (e' : Store.entry)) ->
                Alcotest.(check bool) "key" true (Key.equal k k');
                Alcotest.(check (array int)) "betti" e.betti e'.betti;
                Alcotest.(check int) "conn" e.connectivity e'.connectivity)
              entries loaded));
    Alcotest.test_case "malformed lines are skipped" `Quick (fun () ->
        Alcotest.(check bool) "garbage" true (Store.entry_of_line "zzz" = None);
        Alcotest.(check bool)
          "bad betti" true
          (Store.entry_of_line (String.make 32 '0' ^ " 1 a,b") = None));
    Alcotest.test_case "tolerant loader: truncated final line" `Quick (fun () ->
        let good1 =
          Store.entry_to_line
            (Key.of_complex (cx [ [ 0; 1 ] ]))
            { Store.betti = [| 1; 0 |]; connectivity = 0 }
        in
        let good2 =
          Store.entry_to_line
            (Key.of_complex (cx [ [ 1; 2 ] ]))
            { Store.betti = [| 1; 0 |]; connectivity = 0 }
        in
        let path = Filename.temp_file "psph_trunc" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            (* crash mid-flush: the third entry is cut off mid-key, no
               trailing newline *)
            output_string oc (good1 ^ "\n" ^ good2 ^ "\n");
            output_string oc (String.sub good1 0 17);
            close_out oc;
            Alcotest.(check int)
              "both whole entries survive" 2
              (List.length (Store.load path))));
    Alcotest.test_case "tolerant loader: garbage mid-file" `Quick (fun () ->
        let good k =
          Store.entry_to_line
            (Key.of_complex (cx [ [ 0; k ] ]))
            { Store.betti = [| 1; 0 |]; connectivity = 0 }
        in
        let path = Filename.temp_file "psph_garbage" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc
              (good 1 ^ "\n\x00\x01 not a line at all\n" ^ good 2 ^ "\n");
            close_out oc;
            let loaded = Store.load path in
            Alcotest.(check int) "entries around the garbage" 2
              (List.length loaded)));
    Alcotest.test_case "tolerant loader: empty file" `Quick (fun () ->
        let path = Filename.temp_file "psph_empty" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () -> Alcotest.(check int) "no entries" 0 (List.length (Store.load path))));
    Alcotest.test_case "flush after corrupt load rewrites a clean store" `Quick
      (fun () ->
        let path = Filename.temp_file "psph_rewrite" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let good =
              Store.entry_to_line
                (Key.of_complex (cx [ [ 0; 1 ] ]))
                { Store.betti = [| 1; 0 |]; connectivity = 0 }
            in
            let oc = open_out path in
            output_string oc (good ^ "\nbroken line\n" ^ String.sub good 0 9);
            close_out oc;
            let e = E.create ~domains:0 ~persist:path () in
            ignore (E.eval e (E.Psph { n = 1; values = 2 }));
            E.shutdown e;
            (* after the rewrite every line must parse again *)
            let ic = open_in path in
            let rec lines acc =
              match input_line ic with
              | l -> lines (l :: acc)
              | exception End_of_file -> List.rev acc
            in
            let ls = lines [] in
            close_in ic;
            Alcotest.(check bool) "store grew" true (List.length ls >= 2);
            List.iter
              (fun l ->
                Alcotest.(check bool) "line parses" true
                  (Store.entry_of_line l <> None))
              ls));
    Alcotest.test_case "engine reloads a persisted cache" `Quick (fun () ->
        let path = Filename.temp_file "psph_persist" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let spec = E.Psph { n = 2; values = 2 } in
            let e1 = E.create ~domains:0 ~persist:path () in
            let r1 = E.eval e1 spec in
            E.shutdown e1;
            let e2 = E.create ~domains:0 ~persist:path () in
            let r2 = E.eval e2 spec in
            E.shutdown e2;
            Alcotest.(check bool) "fresh engine, warm cache" true r2.E.cached;
            Alcotest.(check (array int))
              "same betti" r1.E.answer.E.betti r2.E.answer.E.betti));
  ]

(* ------------------------------------------------------------------ *)
(* engine vs direct Homology, including the cache-hit path             *)
(* ------------------------------------------------------------------ *)

let gen_psph =
  QCheck2.Gen.(
    int_range 0 3 >>= fun n ->
    let values = list_size (int_range 1 3) (int_range 0 3) in
    list_repeat (n + 1) values
    |> map (fun vss ->
           let vss = Array.of_list vss in
           Psph.create
             ~base:(Simplex.proc_simplex n)
             ~values:(fun p -> List.map (fun v -> Label.Int v) vss.(Pid.to_int p))))

(* random small facet lists over anonymous vertices: not pseudospheres, so
   the engine sees arbitrary complexes too *)
let gen_facets =
  QCheck2.Gen.(
    list_size (int_range 0 6)
      (list_size (int_range 1 4) (int_range 0 7) |> map (List.sort_uniq Int.compare))
    |> map (fun ls -> cx ls))

let agrees c =
  let e = Lazy.force engine in
  let direct_betti = Homology.betti c in
  let direct_conn = Homology.connectivity c in
  let r1 = E.eval e (E.Explicit c) in
  let r2 = E.eval e (E.Explicit c) in
  r1.E.answer.E.betti = direct_betti
  && r1.E.answer.E.connectivity = direct_conn
  && r2.E.cached
  && r2.E.answer.E.betti = direct_betti
  && r2.E.answer.E.connectivity = direct_conn

let engine_props =
  let open QCheck2 in
  [
    Test.make ~count:100
      ~name:"engine = Homology on random psi(P^n;U), twice (cache hit)" gen_psph
      (fun ps -> agrees (Psph.realize ~vertex:Psph.default_vertex ps));
    Test.make ~count:100
      ~name:"engine = Homology on random facet complexes, twice" gen_facets
      agrees;
  ]
  |> List.map QCheck_alcotest.to_alcotest

let engine_unit_tests =
  [
    Alcotest.test_case "model spec matches direct construction" `Quick (fun () ->
        let e = Lazy.force engine in
        let r =
          E.eval e
            (E.Model
               {
                 model = "sync";
                 params = { Model_complex.default_spec with n = 2 };
               })
        in
        let direct =
          Sync_complex.rounds ~k:1 ~r:1
            (Input_complex.simplex_of_inputs [ (0, 0); (1, 1); (2, 0) ])
        in
        Alcotest.(check (array int)) "betti" (Homology.betti direct) r.E.answer.E.betti;
        Alcotest.(check int)
          "connectivity" (Homology.connectivity direct)
          r.E.answer.E.connectivity);
    Alcotest.test_case "batch answers match solo answers, in order" `Quick
      (fun () ->
        let e = Lazy.force engine in
        let members =
          [
            ({|{"op":"psph","n":2,"values":2}|}, E.Psph { n = 2; values = 2 });
            ({|{"op":"psph","n":3,"values":2}|}, E.Psph { n = 3; values = 2 });
            ({|{"op":"psph","n":2,"values":2}|}, E.Psph { n = 2; values = 2 });
            ( {|{"op":"betti","facets":["0:i0 ; 1:i1","1:i1 ; 2:i0"]}|},
              E.Explicit
                (Complex.of_facets
                   (List.map Complex_io.simplex_of_string
                      [ "0:i0 ; 1:i1"; "1:i1 ; 2:i0" ])) );
          ]
        in
        let resp =
          Serve.handle_line e
            (Printf.sprintf {|{"op":"batch","requests":[%s]}|}
               (String.concat "," (List.map fst members)))
        in
        let results =
          match Option.bind (obj_field "results" resp) Jsonl.to_list_opt with
          | Some rs -> rs
          | None -> Alcotest.fail ("no batch results: " ^ resp)
        in
        Alcotest.(check int) "length" 4 (List.length results);
        List.iter2
          (fun (_, spec) member ->
            let solo = E.eval e spec in
            Alcotest.(check (option (list int)))
              "betti"
              (Some (Array.to_list solo.E.answer.E.betti))
              (Option.map
                 (List.filter_map Jsonl.to_int_opt)
                 (Option.bind (Jsonl.member "betti" member) Jsonl.to_list_opt));
            Alcotest.(check (option string))
              "key"
              (Some (Key.to_hex solo.E.key))
              (Option.bind (Jsonl.member "key" member) Jsonl.to_string_opt))
          members results);
    Alcotest.test_case "Betti agrees with Homology on a large complex" `Quick
      (fun () ->
        let c = Psph.realize ~vertex:Psph.default_vertex (Psph.binary 4) in
        let e = Lazy.force engine in
        let r = E.eval e (E.Explicit c) in
        Alcotest.(check (array int)) "betti" (Homology.betti c) r.E.answer.E.betti);
    Alcotest.test_case "spec memo stays bounded, answers unchanged" `Quick
      (fun () ->
        (* an open spec keyspace: 10x the cache capacity in distinct psph
           specs must not grow the spec memo past 2x capacity *)
        let capacity = 4 in
        let specs =
          List.init (10 * capacity) (fun i ->
              E.Psph { n = i mod 2; values = 1 + (i / 2) })
        in
        let small = E.create ~domains:0 ~capacity () in
        let reference = E.create ~domains:0 () in
        Fun.protect
          ~finally:(fun () -> E.shutdown small; E.shutdown reference)
        @@ fun () ->
        (* reference answers first: the gauge is process-wide, so the
           bounded engine must be the last to touch it *)
        let expected = List.map (E.eval reference) specs in
        let same what =
          List.iter2
            (fun spec (expect : E.result) ->
              let r = E.eval small spec in
              Alcotest.(check bool) (what ^ ": key") true (Key.equal expect.E.key r.E.key);
              Alcotest.(check (array int)) (what ^ ": betti")
                expect.E.answer.E.betti r.E.answer.E.betti;
              Alcotest.(check int) (what ^ ": connectivity")
                expect.E.answer.E.connectivity r.E.answer.E.connectivity)
            specs expected
        in
        same "first pass";
        Alcotest.(check bool) "spec memo <= 2x capacity" true
          (Obs.gauge_value (Obs.gauge "engine.spec_memo")
          <= float_of_int (2 * capacity));
        (* a second pass rebuilds what the bound dropped, identically *)
        same "second pass");
    Alcotest.test_case "stats counters move" `Quick (fun () ->
        let s = E.stats (Lazy.force engine) in
        Alcotest.(check bool) "queries > 0" true (s.E.queries > 0);
        Alcotest.(check bool) "hits > 0" true (s.E.hits > 0);
        Alcotest.(check bool) "misses > 0" true (s.E.misses > 0);
        Alcotest.(check int) "domains" 2 s.E.domains);
  ]

(* ------------------------------------------------------------------ *)
(* tiered solver: eval_conn, modes, provenance                         *)
(* ------------------------------------------------------------------ *)

let tier_name = function
  | E.Cached -> "cached"
  | E.Symbolic -> "symbolic"
  | E.Numeric -> "numeric"

let async2 =
  E.Model
    {
      model = "async";
      params = { Model_complex.n = 2; f = 1; k = 1; p = 2; r = 1; ext = [] };
    }

(* sequential engines: these cases assert exact cache/tier transitions *)
let with_solver_engine f =
  let e = E.create ~domains:0 ~capacity:64 () in
  Fun.protect ~finally:(fun () -> E.shutdown e) (fun () -> f e)

let solver_tier_tests =
  [
    Alcotest.test_case "auto answers a model query symbolically, never cached"
      `Quick (fun () ->
        with_solver_engine @@ fun e ->
        let r1 = E.eval_conn e async2 in
        Alcotest.(check string) "tier" "symbolic" (tier_name r1.E.solver.E.tier);
        Alcotest.(check bool) "has a rule" true (r1.E.solver.E.rule <> None);
        Alcotest.(check bool) "no betti realized" true (r1.E.answer.E.betti = [||]);
        Alcotest.(check bool) "not cached" false r1.E.cached;
        (* symbolic answers are free to rederive; the cache stays numeric *)
        let r2 = E.eval_conn e async2 in
        Alcotest.(check string) "still symbolic" "symbolic"
          (tier_name r2.E.solver.E.tier);
        Alcotest.(check bool) "stable key" true (Key.equal r1.E.key r2.E.key));
    Alcotest.test_case "check mode passes a strict one-sided bound" `Quick
      (fun () ->
        (* the example in solver.mli: one-round dyn at n = 2 is
           1-connected, its symbolic bound only 0 *)
        with_solver_engine @@ fun e ->
        let dyn2 =
          E.Model
            {
              model = "dyn";
              params = { Model_complex.default_spec with n = 2; r = 1 };
            }
        in
        let r = E.eval ~mode:E.Check e dyn2 in
        Alcotest.(check (array int)) "betti" [| 1; 0; 17 |] r.E.answer.E.betti;
        Alcotest.(check int) "connectivity" 1 r.E.answer.E.connectivity;
        Alcotest.(check (option int)) "checked bound" (Some 0) r.E.solver.E.checked);
    Alcotest.test_case "numeric tier provenance has no collapse count, then the cache"
      `Quick (fun () ->
        with_solver_engine @@ fun e ->
        let r1 = E.eval_conn ~mode:E.Numeric_only e async2 in
        Alcotest.(check string) "tier" "numeric" (tier_name r1.E.solver.E.tier);
        (* elimination runs on the built complex; no Morse precollapse *)
        Alcotest.(check bool) "no cells_removed" true
          (r1.E.solver.E.cells_removed = None);
        let r2 = E.eval_conn ~mode:E.Numeric_only e async2 in
        Alcotest.(check string) "warm tier" "cached" (tier_name r2.E.solver.E.tier);
        Alcotest.(check bool) "cached" true r2.E.cached;
        (* auto prefers the exact warm slot over rederiving the bound *)
        let r3 = E.eval_conn e async2 in
        Alcotest.(check string) "auto hits cache" "cached"
          (tier_name r3.E.solver.E.tier));
    Alcotest.test_case "check mode agrees for every registered model, small n"
      `Quick (fun () ->
        with_solver_engine @@ fun e ->
        let checked = ref 0 in
        List.iter
          (fun (module M : Model_complex.MODEL) ->
            if not (String.length M.name >= 5 && String.sub M.name 0 5 = "test-")
            then
              List.iter
                (fun r ->
                  let params =
                    { Model_complex.n = 2; f = 1; k = 1; p = 2; r; ext = [] }
                  in
                  match M.validate params with
                  | Error _ -> ()
                  | Ok _ -> (
                      let res =
                        E.eval_conn ~mode:E.Check e
                          (E.Model { model = M.name; params })
                      in
                      match res.E.solver.E.checked with
                      | Some bound ->
                          incr checked;
                          Alcotest.(check bool)
                            (Printf.sprintf "%s r=%d bound holds" M.name r)
                            true
                            (res.E.answer.E.connectivity >= bound)
                      | None -> ()))
                [ 0; 1; 2 ])
          (Model_complex.all ());
        Alcotest.(check bool) "some checks ran" true (!checked > 0));
    Alcotest.test_case "symbolic-only fails when no derivation applies" `Quick
      (fun () ->
        with_solver_engine @@ fun e ->
        match
          E.eval_conn ~mode:E.Symbolic_only e (E.Explicit (cx [ [ 0; 1 ] ]))
        with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected Failure for an explicit complex");
    Alcotest.test_case "eval (betti) rejects symbolic-only mode" `Quick
      (fun () ->
        with_solver_engine @@ fun e ->
        match E.eval ~mode:E.Symbolic_only e (E.Psph { n = 1; values = 2 }) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "n=7 r=3 sync query answers in O(formula)" `Quick
      (fun () ->
        (* the realized complex would be astronomically large; the solver
           must answer from the round lemma without building anything *)
        with_solver_engine @@ fun e ->
        let params =
          { Model_complex.n = 7; f = 3; k = 1; p = 2; r = 3; ext = [] }
        in
        let r = E.eval_conn e (E.Model { model = "sync"; params }) in
        Alcotest.(check string) "tier" "symbolic" (tier_name r.E.solver.E.tier);
        let (module Sync : Model_complex.MODEL) = Model_complex.get "sync" in
        Alcotest.(check (option string))
          "rule is the model's lemma" (Some Sync.connectivity_lemma)
          r.E.solver.E.rule;
        match Sync.expected_connectivity params ~m:7 with
        | Some c ->
            Alcotest.(check int) "lemma value" c r.E.answer.E.connectivity
        | None -> Alcotest.fail "sync lemma did not apply at n=7 r=3");
    Alcotest.test_case "psph query answers by Corollary 6" `Quick (fun () ->
        with_solver_engine @@ fun e ->
        let r = E.eval_conn e (E.Psph { n = 5; values = 3 }) in
        Alcotest.(check string) "tier" "symbolic" (tier_name r.E.solver.E.tier);
        Alcotest.(check (option string)) "rule" (Some "Corollary 6")
          r.E.solver.E.rule;
        Alcotest.(check int) "bound" 4 r.E.answer.E.connectivity);
    Alcotest.test_case "provenance renders tier-first, options in order" `Quick
      (fun () ->
        let p =
          {
            E.tier = E.Numeric;
            rule = Some "Lemma 12";
            steps = Some 3;
            cells_removed = Some 7;
            checked = Some 1;
          }
        in
        Alcotest.(check (list string))
          "field order"
          [ "tier"; "rule"; "steps"; "checked" ]
          (List.map fst (E.provenance_fields p)));
  ]

(* ------------------------------------------------------------------ *)
(* wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

(* a served request's one reply line and its "ok" field *)
let served e line =
  let resp = Serve.handle_line e line in
  Alcotest.(check int) ("one line for " ^ line) 1
    (List.length (String.split_on_char '\n' resp));
  ( Option.bind (obj_field "ok" resp) (function
      | Jsonl.Bool b -> Some b
      | _ -> None),
    resp )

(* the reply is an error naming [says] and the build budget *)
let budget_refused e ~says line =
  match served e line with
  | Some false, resp ->
      let msg =
        Option.value ~default:"" (Option.bind (obj_field "error" resp) Jsonl.to_string_opt)
      in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (sub ^ " in " ^ msg) true (Test_models.contains ~sub msg))
        [ says; string_of_int Vertex_table.max_faces ]
  | _, resp -> Alcotest.fail ("not refused: " ^ resp)

let serve_tests =
  [
    Alcotest.test_case "psph request answers with betti + connectivity" `Quick
      (fun () ->
        let e = Lazy.force engine in
        let resp = Serve.handle_line e {|{"id":9,"op":"psph","n":2,"values":2}|} in
        Alcotest.(check (option bool))
          "ok" (Some true)
          (Option.map (fun v -> v = Jsonl.Bool true) (obj_field "ok" resp));
        Alcotest.(check (option int)) "id" (Some 9)
          (Option.bind (obj_field "id" resp) Jsonl.to_int_opt);
        Alcotest.(check (option int)) "connectivity" (Some 1)
          (Option.bind (obj_field "connectivity" resp) Jsonl.to_int_opt);
        match Option.bind (obj_field "betti" resp) Jsonl.to_list_opt with
        | Some l ->
            Alcotest.(check (list int)) "betti" [ 1; 0; 1 ]
              (List.filter_map Jsonl.to_int_opt l)
        | None -> Alcotest.fail "no betti field");
    Alcotest.test_case "malformed line keeps serving" `Quick (fun () ->
        let e = Lazy.force engine in
        let resp = Serve.handle_line e "][ nope" in
        Alcotest.(check (option bool))
          "not ok" (Some true)
          (Option.map (fun v -> v = Jsonl.Bool false) (obj_field "ok" resp)));
    Alcotest.test_case "unknown op reports an error with id" `Quick (fun () ->
        let e = Lazy.force engine in
        let resp = Serve.handle_line e {|{"id":3,"op":"frobnicate"}|} in
        Alcotest.(check (option int)) "id" (Some 3)
          (Option.bind (obj_field "id" resp) Jsonl.to_int_opt);
        Alcotest.(check bool) "error present" true (obj_field "error" resp <> None));
    Alcotest.test_case "client-chosen op names cannot grow the registry" `Quick
      (fun () ->
        let e = Lazy.force engine in
        let op_histograms () =
          List.filter
            (fun (name, _) -> String.starts_with ~prefix:"serve.op." name)
            (Obs.snapshot ()).Obs.histograms
        in
        let before = List.length (op_histograms ()) in
        for i = 1 to 1000 do
          ignore (Serve.handle_line e (Printf.sprintf {|{"op":"zz%d"}|} i))
        done;
        let after = op_histograms () in
        Alcotest.(check bool)
          "at most one new serve.op.* entry" true
          (List.length after - before <= 1);
        match List.assoc_opt "serve.op.unknown" after with
        | Some st ->
            Alcotest.(check bool) "every bogus op timed" true (st.Obs.count >= 1000)
        | None -> Alcotest.fail "no serve.op.unknown histogram");
    Alcotest.test_case "batch mixes successes and per-slot errors" `Quick
      (fun () ->
        let e = Lazy.force engine in
        let resp =
          Serve.handle_line e
            {|{"op":"batch","requests":[{"op":"psph","n":1,"values":2},{"op":"nope"}]}|}
        in
        match Option.bind (obj_field "results" resp) Jsonl.to_list_opt with
        | Some [ first; second ] ->
            Alcotest.(check bool) "first ok" true
              (Jsonl.member "ok" first = Some (Jsonl.Bool true));
            Alcotest.(check bool) "second failed" true
              (Jsonl.member "ok" second = Some (Jsonl.Bool false))
        | _ -> Alcotest.fail "expected two results");
    Alcotest.test_case "models op lists the registry in order" `Quick (fun () ->
        let e = Lazy.force engine in
        let resp = Serve.handle_line e {|{"op":"models"}|} in
        match Option.bind (obj_field "models" resp) Jsonl.to_list_opt with
        | Some l ->
            Alcotest.(check (list string))
              "names"
              (Model_complex.names ())
              (List.filter_map Jsonl.to_string_opt l)
        | None -> Alcotest.fail "no models field");
    Alcotest.test_case "model-complex reaches every registered model" `Quick
      (fun () ->
        let e = Lazy.force engine in
        List.iter
          (fun name ->
            let resp =
              Serve.handle_line e
                (Printf.sprintf {|{"op":"model-complex","model":%S,"n":2}|} name)
            in
            Alcotest.(check (option bool))
              (name ^ " ok") (Some true)
              (Option.map (fun v -> v = Jsonl.Bool true) (obj_field "ok" resp)))
          (Model_complex.names ());
        let resp =
          Serve.handle_line e {|{"op":"model-complex","model":"nope","n":2}|}
        in
        match Option.bind (obj_field "error" resp) Jsonl.to_string_opt with
        | Some msg ->
            (* the error names the alternatives *)
            List.iter
              (fun name ->
                let found =
                  let n = String.length name and m = String.length msg in
                  let rec go i =
                    i + n <= m && (String.sub msg i n = name || go (i + 1))
                  in
                  go 0
                in
                Alcotest.(check bool) ("lists " ^ name) true found)
              (Model_complex.names ())
        | None -> Alcotest.fail "no error for unknown model");
    Alcotest.test_case "model-complex reads model-owned ext fields" `Quick
      (fun () ->
        let e = Lazy.force engine in
        let key_of line =
          let resp = Serve.handle_line e line in
          match Option.bind (obj_field "key" resp) Jsonl.to_string_opt with
          | Some k -> k
          | None -> Alcotest.fail ("no key in response to " ^ line)
        in
        (* enum name and integer code spellings land on one cache key *)
        let by_name =
          key_of {|{"op":"model-complex","model":"byz","n":2,"t":2,"equiv":"none"}|}
        in
        let by_code =
          key_of {|{"op":"model-complex","model":"byz","n":2,"t":2,"equiv":0}|}
        in
        Alcotest.(check string) "byz spellings converge" by_name by_code;
        let default_key = key_of {|{"op":"model-complex","model":"byz","n":2}|} in
        Alcotest.(check bool) "t=2 is a different complex" true
          (by_name <> default_key);
        let dyn_name =
          key_of {|{"op":"model-complex","model":"dyn","n":2,"adv":"strong"}|}
        in
        let dyn_code = key_of {|{"op":"model-complex","model":"dyn","n":2,"adv":1}|} in
        Alcotest.(check string) "dyn spellings converge" dyn_name dyn_code;
        (* a value the model's parser rejects answers an error, not a 500 *)
        let resp =
          Serve.handle_line e
            {|{"op":"model-complex","model":"byz","n":2,"equiv":"maybe"}|}
        in
        Alcotest.(check (option bool))
          "bad enum value rejected" (Some true)
          (Option.map (fun v -> v = Jsonl.Bool false) (obj_field "ok" resp)));
    Alcotest.test_case "models op advertises ext parameter metadata" `Quick
      (fun () ->
        let e = Lazy.force engine in
        let resp = Serve.handle_line e {|{"op":"models"}|} in
        match obj_field "params" resp with
        | None -> Alcotest.fail "no params field"
        | Some params ->
            let byz =
              match Jsonl.member "byz" params with
              | Some v -> v
              | None -> Alcotest.fail "no byz entry"
            in
            Alcotest.(check bool) "byz declares t" true
              (Jsonl.member "t" byz <> None);
            Alcotest.(check bool) "byz declares equiv" true
              (Jsonl.member "equiv" byz <> None);
            (* extension-free models advertise nothing *)
            Alcotest.(check bool) "async has no entry" true
              (Jsonl.member "async" params = None));
    Alcotest.test_case "connectivity answers a model query with provenance"
      `Quick (fun () ->
        let e = Lazy.force engine in
        let resp =
          Serve.handle_line e
            {|{"op":"connectivity","model":"async","n":2,"r":1,"solver":"symbolic"}|}
        in
        Alcotest.(check (option bool))
          "ok" (Some true)
          (Option.map (fun v -> v = Jsonl.Bool true) (obj_field "ok" resp));
        Alcotest.(check bool) "no betti member" true (obj_field "betti" resp = None);
        Alcotest.(check bool) "connectivity present" true
          (obj_field "connectivity" resp <> None);
        match obj_field "solver" resp with
        | Some solver ->
            Alcotest.(check (option string))
              "tier" (Some "symbolic")
              (Option.bind (Jsonl.member "tier" solver) Jsonl.to_string_opt);
            Alcotest.(check bool) "rule present" true
              (Jsonl.member "rule" solver <> None)
        | None -> Alcotest.fail "no solver field");
    Alcotest.test_case "connectivity psph form honors --solver numeric" `Quick
      (fun () ->
        let e = Lazy.force engine in
        let resp =
          Serve.handle_line e
            {|{"op":"connectivity","n":2,"values":2,"solver":"numeric"}|}
        in
        match obj_field "solver" resp with
        | Some solver ->
            let tier =
              Option.bind (Jsonl.member "tier" solver) Jsonl.to_string_opt
            in
            (* numeric on a cold slot, cached once another case warmed it *)
            Alcotest.(check bool) "numeric or cached" true
              (tier = Some "numeric" || tier = Some "cached")
        | None -> Alcotest.fail "no solver field");
    Alcotest.test_case "connectivity solver=check reports the verified bound"
      `Quick (fun () ->
        let e = Lazy.force engine in
        let resp =
          Serve.handle_line e
            {|{"op":"connectivity","model":"iis","n":2,"r":1,"solver":"check"}|}
        in
        Alcotest.(check (option bool))
          "ok" (Some true)
          (Option.map (fun v -> v = Jsonl.Bool true) (obj_field "ok" resp));
        match obj_field "solver" resp with
        | Some solver ->
            Alcotest.(check bool) "checked present" true
              (Jsonl.member "checked" solver <> None)
        | None -> Alcotest.fail "no solver field");
    Alcotest.test_case "bad solver value answers an error" `Quick (fun () ->
        let e = Lazy.force engine in
        let resp =
          Serve.handle_line e
            {|{"op":"connectivity","n":1,"values":2,"solver":"bogus"}|}
        in
        Alcotest.(check (option bool))
          "not ok" (Some true)
          (Option.map (fun v -> v = Jsonl.Bool false) (obj_field "ok" resp)));
    Alcotest.test_case "betti op rejects solver=symbolic" `Quick (fun () ->
        let e = Lazy.force engine in
        let resp =
          Serve.handle_line e
            {|{"op":"psph","n":1,"values":2,"solver":"symbolic"}|}
        in
        Alcotest.(check (option bool))
          "not ok" (Some true)
          (Option.map (fun v -> v = Jsonl.Bool false) (obj_field "ok" resp)));
    Alcotest.test_case "batch members carry their own solver modes" `Quick
      (fun () ->
        let e = Lazy.force engine in
        let resp =
          Serve.handle_line e
            {|{"op":"batch","requests":[{"op":"connectivity","model":"async","n":2,"r":1,"solver":"symbolic"},{"op":"connectivity","n":1,"values":2,"solver":"bogus"}]}|}
        in
        match Option.bind (obj_field "results" resp) Jsonl.to_list_opt with
        | Some [ first; second ] ->
            Alcotest.(check bool) "first ok" true
              (Jsonl.member "ok" first = Some (Jsonl.Bool true));
            (match Jsonl.member "solver" first with
            | Some solver ->
                Alcotest.(check (option string))
                  "first tier" (Some "symbolic")
                  (Option.bind (Jsonl.member "tier" solver) Jsonl.to_string_opt)
            | None -> Alcotest.fail "first result has no solver field");
            Alcotest.(check bool) "second failed" true
              (Jsonl.member "ok" second = Some (Jsonl.Bool false))
        | _ -> Alcotest.fail "expected two results");
    Alcotest.test_case "stats op reports engine counters" `Quick (fun () ->
        let e = Lazy.force engine in
        let resp = Serve.handle_line e {|{"op":"stats"}|} in
        match obj_field "stats" resp with
        | Some stats ->
            Alcotest.(check bool) "has hits" true
              (Option.bind (Jsonl.member "hits" stats) Jsonl.to_int_opt <> None);
            Alcotest.(check bool) "stats carries metrics snapshot" true
              (obj_field "metrics" resp <> None)
        | None -> Alcotest.fail "no stats field");
    Alcotest.test_case "metrics op returns the registry snapshot" `Quick
      (fun () ->
        let e = Lazy.force engine in
        (* at least one query first, so engine spans exist *)
        ignore (Serve.handle_line e {|{"op":"psph","n":1,"values":2}|});
        let resp = Serve.handle_line e {|{"op":"metrics"}|} in
        match obj_field "metrics" resp with
        | None -> Alcotest.fail "no metrics field"
        | Some m -> (
            Alcotest.(check bool) "has counters" true
              (Jsonl.member "counters" m <> None);
            match Jsonl.member "spans" m with
            | None -> Alcotest.fail "no spans section"
            | Some spans -> (
                match Jsonl.member "engine.query" spans with
                | None -> Alcotest.fail "no engine.query span totals"
                | Some agg ->
                    let count =
                      Option.value ~default:0
                        (Option.bind (Jsonl.member "count" agg) Jsonl.to_int_opt)
                    in
                    Alcotest.(check bool) "engine spans recorded" true (count > 0))));
    ( (* satellite: any unexpected handler exception must answer the
         request (with its id) and leave the loop alive *)
      let module Poison : Model_complex.MODEL = struct
        let name = "test-poison"
        let doc = "test-only model whose construction raises"
        let ext_params = []
        let normalize spec = spec
        let validate spec = Ok spec
        let round _ _ _ _ = raise Not_found
        let pseudosphere_decomposition = None
        let expected_connectivity _ ~m:_ = None
        let connectivity_lemma = "none"
      end in
      Alcotest.test_case "handler exceptions answer instead of killing serve"
        `Quick (fun () ->
          (* registered at run time, after every registry-listing test has
             already executed *)
          Model_complex.register (module Poison);
          let e = Lazy.force engine in
          let resp =
            Serve.handle_line e
              {|{"id":77,"op":"model-complex","model":"test-poison","n":2}|}
          in
          Alcotest.(check (option bool))
            "not ok" (Some true)
            (Option.map (fun v -> v = Jsonl.Bool false) (obj_field "ok" resp));
          Alcotest.(check (option int))
            "id echoed" (Some 77)
            (Option.bind (obj_field "id" resp) Jsonl.to_int_opt);
          (match Option.bind (obj_field "error" resp) Jsonl.to_string_opt with
          | Some msg ->
              Alcotest.(check bool) "internal error reported" true
                (String.length msg > 0)
          | None -> Alcotest.fail "no error field");
          (* the loop must keep serving after the blow-up *)
          let next = Serve.handle_line e {|{"op":"psph","n":1,"values":2}|} in
          Alcotest.(check (option bool))
            "still serving" (Some true)
            (Option.map (fun v -> v = Jsonl.Bool true) (obj_field "ok" next))) );
    Alcotest.test_case "an oversized build answers an error and serving goes on"
      `Quick (fun () ->
        let e = Lazy.force engine in
        (* 5^15 - 1 simplices: refused from the spec, before any build *)
        budget_refused e ~says:"psph n=14 values=4" {|{"op":"psph","n":14,"values":4}|};
        (* 2^72 digraphs: the build stops at the budget *)
        budget_refused e ~says:"build stopped"
          {|{"op":"model-complex","model":"dyn","n":8,"adv":"all"}|};
        Alcotest.(check (option bool)) "next request answers" (Some true)
          (fst (served e {|{"op":"psph","n":2,"values":2}|})));
    Alcotest.test_case "a huge n answers at once and serving goes on" `Quick
      (fun () ->
        let e = Lazy.force engine in
        (* the failure-free facet of n = 20 already has 2^21 - 1 faces *)
        List.iter
          (fun n ->
            budget_refused e ~says:(Printf.sprintf "async n=%d" n)
              (Printf.sprintf {|{"op":"model-complex","model":"async","n":%d}|} n))
          [ 20; 40; 100_000_000 ];
        (* Corollary 6 by arithmetic, with no base listed *)
        (match served e {|{"op":"connectivity","n":100000000,"values":2}|} with
        | Some true, resp ->
            Alcotest.(check (option int)) "n - 1" (Some 99_999_999)
              (Option.bind (obj_field "connectivity" resp) Jsonl.to_int_opt)
        | _, resp -> Alcotest.fail ("not answered: " ^ resp));
        Alcotest.(check (option bool)) "next request answers" (Some true)
          (fst (served e {|{"op":"psph","n":2,"values":2}|})));
    Alcotest.test_case "every model's complex holds a facet on all n + 1 processes"
      `Quick (fun () ->
        (* the premise of refusing n >= 20 before any build *)
        List.iter
          (fun ((module M : Model_complex.MODEL) as m) ->
            List.iter
              (fun (n, r) ->
                match M.validate { Model_complex.default_spec with n; r } with
                | Error _ -> ()
                | Ok spec ->
                    Alcotest.(check int)
                      (Printf.sprintf "%s n=%d r=%d" M.name n r)
                      n
                      (Simplex_index.dim
                         (Model_complex.rounds_index m spec (Solver.standard_input n))))
              [ (1, 0); (1, 1); (2, 1); (2, 2); (3, 1) ])
          (Test_models.real_models ()));
    Alcotest.test_case "pathologically nested input answers an error" `Quick
      (fun () ->
        let e = Lazy.force engine in
        let bomb = String.concat "" (List.init 400_000 (fun _ -> "[")) in
        let resp = Serve.handle_line e bomb in
        Alcotest.(check (option bool))
          "not ok" (Some true)
          (Option.map (fun v -> v = Jsonl.Bool false) (obj_field "ok" resp)));
    Alcotest.test_case "trace nests pool -> serve -> engine -> homology" `Quick
      (fun () ->
        (* dedicated engine with real workers; the request is dispatched
           to the pool the way the TCP server does, so the worker's spans
           must re-root under the pool job across the domain boundary *)
        let e = E.create ~domains:2 ~capacity:16 () in
        Obs.set_sink Obs.Memory;
        Obs.clear_records ();
        Fun.protect
          ~finally:(fun () ->
            Obs.set_sink Obs.Null;
            Obs.clear_records ();
            E.shutdown e)
          (fun () ->
            let resp = ref "" in
            E.dispatch e (fun () ->
                resp := Serve.handle_line e {|{"op":"psph","n":3,"values":2}|});
            (* shutdown drains the queue and joins the workers *)
            E.shutdown e;
            let resp = !resp in
            Alcotest.(check (option bool))
              "ok" (Some true)
              (Option.map (fun v -> v = Jsonl.Bool true) (obj_field "ok" resp));
            let spans =
              List.filter_map
                (function
                  | Obs.Span_record { name; id; parent; _ } ->
                      Some (id, (name, parent))
                  | Obs.Event_record _ -> None)
                (Obs.records ())
            in
            let rec chain id =
              match List.assoc_opt id spans with
              | None -> []
              | Some (name, parent) -> (
                  name :: (match parent with None -> [] | Some p -> chain p))
            in
            let rank_chains =
              List.filter_map
                (fun (id, (name, _)) ->
                  if name = "homology.rank" then Some (chain id) else None)
                spans
            in
            Alcotest.(check bool) "some rank spans" true (rank_chains <> []);
            List.iter
              (fun c ->
                Alcotest.(check (list string))
                  "nesting"
                  [
                    "homology.rank"; "engine.query"; "serve.request";
                    "engine.pool.job";
                  ]
                  c)
              rank_chains));
    (* must stay last in the last suite: stops the shared engine's domains *)
    Alcotest.test_case "shutdown" `Quick (fun () ->
        E.shutdown (Lazy.force engine));
  ]

(* ------------------------------------------------------------------ *)
(* fresh serve processes                                               *)
(* ------------------------------------------------------------------ *)

(* The metric handles are process-global, so only a fresh process
   exercises their first use.  Pipelined requests over TCP make the
   server's two worker domains start requests together; each request is
   a distinct tiny miss or a symbolic connectivity answer, so both
   workers reach every handle (query counter, build and compute
   histograms, symbolic-hit counter, per-op latency) for the first time
   at about the same moment. *)
let first_queries =
  List.concat_map
    (fun v ->
      [
        Printf.sprintf {|{"op":"psph","n":0,"values":%d}|} v;
        Printf.sprintf {|{"op":"connectivity","model":"sync","n":%d}|} v;
      ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let query_and_stop ((_, _, addr) as child) =
  let c = Psph_net.Client.create ~timeout_ms:10_000 ~retries:0 ~pipeline_depth:16 addr in
  let replies =
    Fun.protect
      ~finally:(fun () -> Psph_net.Client.close c)
      (fun () -> Psph_net.Client.pipeline c first_queries)
  in
  if Psc_child.stop child <> Unix.WEXITED 143 then
    Alcotest.fail "psc serve did not stop cleanly on SIGTERM";
  replies

let fresh_process_tests =
  [
    Alcotest.test_case "concurrent first requests on fresh serve processes"
      `Quick (fun () ->
        (* the race hit a few percent of fresh processes before the
           handles were created eagerly: 64 processes, 2 alive at a time *)
        for _ = 1 to 32 do
          List.init 2 (fun _ ->
              Psc_child.spawn
                [ "serve"; "--listen"; "127.0.0.1:0"; "--domains"; "2" ])
          |> List.map query_and_stop
          |> List.iter (fun replies ->
                 Alcotest.(check int) "one answer per query" 16 (List.length replies);
                 List.iter
                   (function
                     | Ok r when obj_field "ok" r = Some (Jsonl.Bool true) -> ()
                     | Ok r -> Alcotest.fail ("error reply: " ^ r)
                     | Error e -> Alcotest.fail (Psph_net.Client.error_message e))
                   replies)
        done);
  ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* a [psc] child run to completion: exit status and stdout *)
let run_psc args input =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process Psc_child.exe
      (Array.of_list (Psc_child.exe :: args))
      in_r out_w null
  in
  List.iter Unix.close [ in_r; out_w; null ];
  let oc = Unix.out_channel_of_descr in_w in
  output_string oc input;
  close_out oc;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  (snd (Unix.waitpid [] pid), out)

let cli_tests =
  [
    Alcotest.test_case "async refuses f > n, served and on the command line"
      `Quick (fun () ->
        (* Lemma 12 holds only for f <= n: accepting f > n let the
           symbolic tier claim a bound the built complex refutes *)
        let engine = E.create ~domains:0 () in
        Fun.protect ~finally:(fun () -> E.shutdown engine) @@ fun () ->
        List.iter
          (fun line ->
            let resp = Serve.handle_line engine line in
            Alcotest.(check bool) line true
              (obj_field "ok" resp = Some (Jsonl.Bool false));
            Alcotest.(check bool) ("names the rule: " ^ resp) true
              (contains resp "f must be <= n"))
          [ {|{"op":"connectivity","model":"async","n":1,"f":2,"r":2}|};
            {|{"op":"model-complex","model":"async","n":1,"f":2}|} ];
        let status, _ = run_psc [ "async"; "-n"; "1"; "-f"; "2" ] "" in
        Alcotest.(check bool) "psc async -n 1 -f 2 exits 2" true
          (status = Unix.WEXITED 2));
    Alcotest.test_case "stdin serve starts no worker domain" `Quick (fun () ->
        let status, out = run_psc [ "serve"; "--domains"; "2" ] "{\"op\":\"stats\"}\n" in
        Alcotest.(check bool) "exits 0" true (status = Unix.WEXITED 0);
        Alcotest.(check bool) ("domains 0: " ^ out) true
          (contains out {|"domains":0|}));
  ]

let suites =
  [
    ("engine keys", key_tests);
    ("engine lru", lru_tests);
    ("engine pool", pool_tests);
    ("engine store", store_tests);
    ("engine vs homology", engine_unit_tests @ engine_props);
    ("engine solver", solver_tier_tests);
    ("engine serve process", fresh_process_tests @ cli_tests);
    ("engine serve", serve_tests);
  ]
