(* Tests for the first-class model registry: registration invariants, the
   model-owned spec normalization and its engine cache-keying consequences
   (two specs differing only in an irrelevant parameter must share a cache
   slot), and the paper's Lemma 11/14/19 pseudosphere decompositions
   checked generically — one qcheck property instantiated per registered
   model, no per-model match anywhere. *)

open Psph_topology
open Pseudosphere
module MC = Model_complex
module E = Psph_engine.Engine
module Key = Psph_engine.Key

let inputs n = List.init (n + 1) (fun i -> (i, i mod 2))

let input_simplex n = Input_complex.simplex_of_inputs (inputs n)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* a spec with every parameter conspicuously nonzero: after [normalize],
   the fields a model zeroes are exactly the ones it ignores *)
let nines = { MC.n = 9; f = 9; k = 9; p = 9; r = 9; ext = [] }

(* ------------------------------------------------------------------ *)
(* registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    Alcotest.test_case "six models, in registration order" `Quick (fun () ->
        Alcotest.(check (list string))
          "names"
          [ "async"; "sync"; "semi"; "iis"; "byz"; "dyn" ]
          (MC.names ()));
    Alcotest.test_case "find/get/all agree on every name" `Quick (fun () ->
        List.iter
          (fun name ->
            Alcotest.(check string) "get" name (MC.name_of (MC.get name));
            match MC.find name with
            | Some m -> Alcotest.(check string) "find" name (MC.name_of m)
            | None -> Alcotest.fail ("find lost " ^ name))
          (MC.names ());
        Alcotest.(check (list string))
          "all in order" (MC.names ())
          (List.map MC.name_of (MC.all ())));
    Alcotest.test_case "unknown model errors with the available list" `Quick
      (fun () ->
        match MC.get "bogus" with
        | _ -> Alcotest.fail "get accepted an unknown model"
        | exception Invalid_argument msg ->
            List.iter
              (fun sub ->
                Alcotest.(check bool) ("mentions " ^ sub) true
                  (contains ~sub msg))
              ("bogus" :: MC.names ()));
    Alcotest.test_case "duplicate registration rejected" `Quick (fun () ->
        let dup : MC.model =
          (module struct
            let name = "async"
            let doc = "impostor"
            let ext_params = []
            let normalize s = s
            let validate s = Ok s
            let one_round _ _ = Complex.empty
            let rounds _ _ = Complex.empty
            let over_inputs _ c = c
            let pseudosphere_decomposition = None
            let expected_connectivity _ ~m:_ = None
            let connectivity_lemma = "none"
          end)
        in
        (match MC.register dup with
        | () -> Alcotest.fail "duplicate register succeeded"
        | exception Invalid_argument _ -> ());
        (* and the real instance is untouched *)
        Alcotest.(check string) "still the original" "impostor"
          (let (module M : MC.MODEL) = dup in
           M.doc);
        let (module A : MC.MODEL) = MC.get "async" in
        Alcotest.(check bool) "original doc" false (A.doc = "impostor"));
  ]

(* ------------------------------------------------------------------ *)
(* model-owned normalization and canonical encoding                    *)
(* ------------------------------------------------------------------ *)

let zeroed (module M : MC.MODEL) =
  let z = M.normalize nines in
  List.filter_map
    (fun (name, v) -> if v = 0 then Some name else None)
    [ ("n", z.MC.n); ("f", z.MC.f); ("k", z.MC.k); ("p", z.MC.p); ("r", z.MC.r) ]

let normalize_tests =
  [
    Alcotest.test_case "each model zeroes exactly its irrelevant params" `Quick
      (fun () ->
        let expect =
          [
            ("async", [ "k"; "p" ]);
            ("sync", [ "f"; "p" ]);
            ("semi", [ "f" ]);
            ("iis", [ "f"; "k"; "p" ]);
            ("byz", [ "f"; "p" ]);
            ("dyn", [ "f"; "k"; "p" ]);
          ]
        in
        List.iter
          (fun ((module M : MC.MODEL) as m) ->
            Alcotest.(check (list string))
              M.name (List.assoc M.name expect) (zeroed m))
          (MC.all ()));
    Alcotest.test_case "normalize is idempotent; validate normalizes" `Quick
      (fun () ->
        List.iter
          (fun (module M : MC.MODEL) ->
            let z = M.normalize nines in
            Alcotest.(check bool) (M.name ^ " idempotent") true
              (M.normalize z = z);
            match M.validate { MC.default_spec with n = 2 } with
            | Error msg -> Alcotest.fail (M.name ^ ": " ^ msg)
            | Ok spec ->
                Alcotest.(check bool) (M.name ^ " validated normal") true
                  (M.normalize spec = spec))
          (MC.all ()));
    Alcotest.test_case "encode keys on the normalized spec" `Quick (fun () ->
        List.iter
          (fun ((module M : MC.MODEL) as m) ->
            let spec = { MC.default_spec with n = 2 } in
            Alcotest.(check string) M.name
              (MC.encode m (M.normalize spec))
              (MC.encode m spec);
            Alcotest.(check bool) (M.name ^ " prefixed") true
              (contains ~sub:(M.name ^ ":") (MC.encode m spec)))
          (MC.all ());
        (* distinct models never collide, even on identical params *)
        let codes =
          List.map (fun m -> MC.encode m MC.default_spec) (MC.all ())
        in
        Alcotest.(check int) "all distinct"
          (List.length codes)
          (List.length (List.sort_uniq String.compare codes)));
  ]

(* ------------------------------------------------------------------ *)
(* the satellite regression: irrelevant params share a cache slot      *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    Alcotest.test_case
      "specs differing only in irrelevant params hit one cache slot" `Quick
      (fun () ->
        let e = E.create ~domains:0 ~capacity:64 () in
        List.iter
          (fun (module M : MC.MODEL) ->
            let base = { MC.default_spec with n = 2 } in
            let z = M.normalize nines in
            (* bump exactly the parameters this model ignores *)
            let bump v zeroed = if zeroed = 0 then v + 5 else v in
            let perturbed =
              {
                base with
                MC.f = bump base.MC.f z.MC.f;
                k = bump base.MC.k z.MC.k;
                p = bump base.MC.p z.MC.p;
              }
            in
            Alcotest.(check bool) (M.name ^ " specs differ") false
              (perturbed = base);
            let r1 = E.eval e (E.Model { model = M.name; params = base }) in
            let r2 = E.eval e (E.Model { model = M.name; params = perturbed }) in
            Alcotest.(check bool) (M.name ^ " same key") true
              (Key.equal r1.E.key r2.E.key);
            Alcotest.(check bool) (M.name ^ " second eval cached") true
              r2.E.cached;
            (* a relevant parameter must change the slot *)
            let r3 =
              E.eval e
                (E.Model { model = M.name; params = { base with MC.r = 2 } })
            in
            Alcotest.(check bool) (M.name ^ " r matters") false
              (Key.equal r1.E.key r3.E.key))
          (MC.all ());
        E.shutdown e);
    Alcotest.test_case "engine rejects invalid and unknown specs" `Quick
      (fun () ->
        let e = E.create ~domains:0 ~capacity:8 () in
        List.iter
          (fun params ->
            match E.eval e (E.Model { model = "sync"; params }) with
            | _ -> Alcotest.fail "invalid spec accepted"
            | exception Invalid_argument _ -> ())
          [
            { MC.default_spec with n = -1 };
            { MC.default_spec with r = -1 };
            { MC.default_spec with k = -1 };
          ];
        (match E.eval e (E.Model { model = "bogus"; params = MC.default_spec }) with
        | _ -> Alcotest.fail "unknown model accepted"
        | exception Invalid_argument msg ->
            Alcotest.(check bool) "lists models" true
              (contains ~sub:"async" msg));
        E.shutdown e);
  ]

(* ------------------------------------------------------------------ *)
(* Lemma 11/14/19 generically: decomposition union ≅ one round         *)
(* ------------------------------------------------------------------ *)

(* random input simplices with random values, plus random parameters;
   invalid or hypothesis-violating draws are discarded by validate *)
let gen_case =
  QCheck2.Gen.(
    int_range 1 3 >>= fun n ->
    int_range 0 n >>= fun f ->
    int_range 1 2 >>= fun k ->
    int_range 1 2 >>= fun p ->
    list_repeat (n + 1) (int_range 0 2)
    |> map (fun vs -> (n, f, k, p, List.mapi (fun i v -> (i, v)) vs)))

let decomposition_props =
  let open QCheck2 in
  List.map
    (fun ((module M : MC.MODEL) as m) ->
      Test.make ~count:25
        ~name:(M.name ^ ": pseudosphere decomposition = one round (generic)")
        gen_case
        (fun (n, f, k, p, ins) ->
          match M.validate { MC.n; f; k; p; r = 1; ext = [] } with
          | Error _ -> true
          | Ok spec ->
              MC.decomposition_holds m spec
                (Input_complex.simplex_of_inputs ins)))
    (MC.all ())
  |> List.map QCheck_alcotest.to_alcotest

(* one deterministic n=4 instance per decomposable model, per the paper *)
let decomposition_n4 =
  [
    Alcotest.test_case "decomposition holds at n=4 for every model" `Slow
      (fun () ->
        List.iter
          (fun ((module M : MC.MODEL) as m) ->
            match M.validate { MC.n = 4; f = 2; k = 1; p = 2; r = 1; ext = [] } with
            | Error msg -> Alcotest.fail (M.name ^ ": " ^ msg)
            | Ok spec ->
                Alcotest.(check bool) M.name true
                  (MC.decomposition_holds m spec (input_simplex 4)))
          (MC.all ()));
  ]

(* ------------------------------------------------------------------ *)
(* generic rounds semantics + the paper's connectivity claims          *)
(* ------------------------------------------------------------------ *)

let rounds_tests =
  [
    Alcotest.test_case "r=0 is the solid input simplex; r=1 is one_round"
      `Quick (fun () ->
        List.iter
          (fun (module M : MC.MODEL) ->
            let s = input_simplex 2 in
            let spec =
              match M.validate { MC.default_spec with n = 2 } with
              | Ok spec -> spec
              | Error msg -> Alcotest.fail (M.name ^ ": " ^ msg)
            in
            Alcotest.(check bool) (M.name ^ " r=0") true
              (Complex.equal
                 (M.rounds { spec with MC.r = 0 } s)
                 (Complex.of_simplex s));
            Alcotest.(check bool) (M.name ^ " r=1") true
              (Complex.equal (M.rounds { spec with MC.r = 1 } s) (M.one_round spec s)))
          (MC.all ()));
    Alcotest.test_case "expected_connectivity is honoured at r=1,2 (n=2)"
      `Quick (fun () ->
        List.iter
          (fun (module M : MC.MODEL) ->
            List.iter
              (fun r ->
                let spec =
                  match M.validate { MC.default_spec with n = 2; r } with
                  | Ok spec -> spec
                  | Error msg -> Alcotest.fail (M.name ^ ": " ^ msg)
                in
                match M.expected_connectivity spec ~m:2 with
                | None -> ()
                | Some conn ->
                    let c = M.rounds spec (input_simplex 2) in
                    Alcotest.(check bool)
                      (Printf.sprintf "%s r=%d >= %d-connected" M.name r conn)
                      true
                      (Homology.is_k_connected c conn))
              [ 1; 2 ])
          (MC.all ()));
    Alcotest.test_case "over_inputs contains rounds of every input facet"
      `Quick (fun () ->
        let ic = Input_complex.make ~n:1 ~values:[ 0; 1 ] in
        List.iter
          (fun (module M : MC.MODEL) ->
            let spec =
              match M.validate { MC.default_spec with n = 1 } with
              | Ok spec -> spec
              | Error msg -> Alcotest.fail (M.name ^ ": " ^ msg)
            in
            let c = M.over_inputs spec ic in
            List.iter
              (fun s ->
                Alcotest.(check bool) (M.name ^ " facet subcomplex") true
                  (Complex.subcomplex (M.rounds spec s) c))
              (Complex.facets ic))
          (MC.all ()));
  ]

(* ------------------------------------------------------------------ *)
(* symbolic solver tier: every rule is a true lower bound              *)
(* ------------------------------------------------------------------ *)

let spec2 = { MC.n = 2; f = 1; k = 1; p = 2; r = 1; ext = [] }

(* runtime-registered test models (e.g. the serve poison model) don't
   promise solver invariants *)
let real_models () =
  List.filter
    (fun (module M : MC.MODEL) ->
      not (String.length M.name >= 5 && String.sub M.name 0 5 = "test-"))
    (MC.all ())

(* ------------------------------------------------------------------ *)
(* round composition against the facet-by-facet reference             *)
(* ------------------------------------------------------------------ *)

(* Round composition facet by facet, with no last-round shortcut: every
   facet of every branch is recursed on down to [r = 0], where it is
   re-closed. *)
module Round_state = Map.Make (struct
  type t = int * Simplex.t

  let compare (r, s) (r', s') =
    match Int.compare r r' with 0 -> Simplex.compare s s' | c -> c
end)

let reference_compose ~branches r s =
  let memo = ref Round_state.empty in
  let rec go r s =
    if r <= 0 then Complex.of_simplex s
    else
      match Round_state.find_opt (r, s) !memo with
      | Some c -> c
      | None ->
          let c =
            List.fold_left
              (fun acc b ->
                List.fold_left
                  (fun acc t -> Complex.union acc (go (r - 1) t))
                  acc (Complex.facets b))
              Complex.empty (branches s)
          in
          memo := Round_state.add (r, s) c !memo;
          c
  in
  go r s

(* The dynamic-network reference, one digraph at a time: the class
   filters [Round_schedule.digraphs], and the global state after a round
   under digraph [g] gives process [p] the label pairing its previous
   state with the sorted [(pid, state)] list of its in-neighbourhood. *)
let dyn_allowed adv g =
  let open Psph_model in
  match adv with
  | Dyn_net_complex.All -> true
  | Rooted -> Round_schedule.rooted g
  | Strong -> Round_schedule.strongly_connected g

let dyn_facet_of s g =
  let state q = Option.get (Simplex.label_of q s) in
  Simplex.of_procs
    (Pid.Map.fold
       (fun p qs acc ->
         let heard =
           List.map
             (fun q -> Label.Pair (Label.Pid q, state q))
             (Pid.Set.elements qs)
         in
         (p, Label.Pair (state p, Label.List heard)) :: acc)
       g [])

let dyn_reference_facets adv s =
  Psph_model.Round_schedule.digraphs ~alive:(Simplex.ids s)
  |> List.filter (dyn_allowed adv)
  |> List.map (dyn_facet_of s)

(* each registered model's branch generator, rebuilt from the model
   modules' public one-round pieces *)
let reference_branches name (spec : MC.spec) =
  let ext key = MC.ext_value spec key ~default:0 in
  match name with
  | "async" -> Some (fun s -> [ Async_complex.one_round ~n:spec.n ~f:spec.f s ])
  | "iis" -> Some (fun s -> [ Iis_complex.one_round s ])
  | "sync" ->
      Some
        (fun s ->
          List.map
            (fun (fk, _) -> Sync_complex.one_round_failing s fk)
            (Sync_complex.pseudospheres ~k:spec.k s))
  | "semi" ->
      Some
        (fun s ->
          List.map
            (fun (pat, _) ->
              Semi_sync_complex.one_round_pattern ~p:spec.p ~n:spec.n s pat)
            (Semi_sync_complex.pseudospheres ~k:spec.k ~p:spec.p ~n:spec.n s))
  | "byz" ->
      Some
        (fun s ->
          List.map
            (fun (_, ps) -> Psph.realize ps)
            (Byz_complex.pseudospheres ~n:spec.n ~k:spec.k ~t:(ext "t")
               ~versions:(1 + ext "equiv") s))
  | "dyn" ->
      let adv = Option.get (Dyn_net_complex.adversary_of_int (ext "adv")) in
      Some
        (fun s -> List.map Complex.of_simplex (dyn_reference_facets adv s))
  | _ -> None

let compose_tests =
  [
    Alcotest.test_case
      "rounds equal the facet-by-facet reference (n=2,3; r=1,2)" `Slow
      (fun () ->
        List.iter
          (fun (module M : MC.MODEL) ->
            (* every adversary class of a model that has one *)
            let exts =
              if M.name = "dyn" then
                List.map (fun adv -> [ ("adv", adv) ]) [ 0; 1; 2 ]
              else [ [] ]
            in
            List.iter
              (fun (n, ext) ->
                let s = input_simplex n in
                let spec r =
                  match M.validate { MC.default_spec with n; r; ext } with
                  | Ok spec -> spec
                  | Error msg -> Alcotest.fail (M.name ^ ": " ^ msg)
                in
                let branches =
                  match reference_branches M.name (spec 1) with
                  | Some b -> b
                  | None -> Alcotest.fail (M.name ^ ": no reference branches")
                in
                let check r =
                  Alcotest.(check bool)
                    (Printf.sprintf "%s n=%d r=%d ext=%s" M.name n r
                       (String.concat ","
                          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) ext)))
                    true
                    (Complex.equal (M.rounds (spec r) s)
                       (reference_compose ~branches r s))
                in
                check 1;
                (* the bench's gate: a second round only where the first
                   has at most 1024 facets *)
                if List.length (Complex.facets (M.rounds (spec 1) s)) <= 1024
                then check 2)
              (List.concat_map (fun n -> List.map (fun e -> (n, e)) exts) [ 2; 3 ]))
          (real_models ()));
    Alcotest.test_case "content keys match the pinned golden values" `Quick
      (fun () ->
        List.iter
          (fun (name, spec, expect) ->
            let c = E.build (E.Model { model = name; params = spec }) in
            Alcotest.(check string) name expect (Key.to_hex (Key.of_complex c)))
          [
            ( "async",
              { MC.default_spec with n = 2; f = 1; r = 2 },
              "0b7b2c6c662b94701728558166c911e6" );
            ( "sync",
              { MC.default_spec with n = 3; k = 2; r = 2 },
              "31698f31a8d2d2ce05424f53a4ee7346" );
            ( "dyn",
              { MC.default_spec with n = 3; r = 1; ext = [ ("adv", 0) ] },
              "0a5bdfff093048073200560862f6d7f9" );
            ( "dyn",
              { MC.default_spec with n = 3; r = 1; ext = [ ("adv", 1) ] },
              "3f6a906d8c36ff0f2d748a4caf911369" );
            ( "dyn",
              { MC.default_spec with n = 3; r = 1; ext = [ ("adv", 2) ] },
              "295970e07d53670532b36c3d30301581" );
            ( "dyn",
              { MC.default_spec with n = 2; r = 2; ext = [ ("adv", 2) ] },
              "2c56ef08d86223c12745db145d9bc595" );
            ( "semi",
              { MC.default_spec with n = 3; k = 1; p = 2; r = 2 },
              "15717989bbd6afb4208315601283a27e" );
            ( "iis",
              { MC.default_spec with n = 2; r = 2 },
              "0c3fb90733ee145c0fbc5e1d67129d1c" );
            ( "byz",
              {
                MC.default_spec with
                n = 3;
                k = 1;
                r = 2;
                ext = [ ("t", 2); ("equiv", 1) ];
              },
              "2fd602432382e4b80d70176154f02406" );
          ]);
  ]

let solver_tests =
  [
    Alcotest.test_case "r=0 answers the solid input simplex" `Quick (fun () ->
        List.iter
          (fun ((module M : MC.MODEL) as m) ->
            match Solver.symbolic_model m { spec2 with MC.n = 3; r = 0 } with
            | Some s ->
                Alcotest.(check int) (M.name ^ " conn") 3 s.Solver.connectivity;
                Alcotest.(check string)
                  (M.name ^ " rule") "solid input simplex (r=0)" s.Solver.rule
            | None -> Alcotest.fail (M.name ^ ": no symbolic answer at r=0"))
          (real_models ()));
    Alcotest.test_case "invalid specs are rejected, not derived" `Quick
      (fun () ->
        List.iter
          (fun ((module M : MC.MODEL) as m) ->
            match Solver.symbolic_model m { spec2 with MC.n = -1 } with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail (M.name ^ ": accepted n = -1"))
          (real_models ()));
    Alcotest.test_case "one-round MV derivations validate numerically at n=2"
      `Quick (fun () ->
        List.iter
          (fun ((module M : MC.MODEL) as m) ->
            match Option.map List.of_seq (Solver.pieces m spec2) with
            | None -> () (* no registered decomposition (iis) *)
            | Some ps -> (
                Alcotest.(check bool)
                  (M.name ^ " within cap") true
                  (List.length ps <= Solver.mv_piece_cap);
                match Solver.symbolic_model m spec2 with
                | Some
                    { Solver.rule = "Theorem 2 + Corollary 6";
                      proof = Some proof; connectivity; steps; _ } ->
                    Alcotest.(check bool) (M.name ^ " steps") true (steps > 0);
                    Alcotest.(check int)
                      (M.name ^ " proof conn") connectivity
                      (Mayer_vietoris.conn proof);
                    Alcotest.(check bool)
                      (M.name ^ " validates") true
                      (Mayer_vietoris.validate ps proof)
                | _ -> Alcotest.fail (M.name ^ ": expected an MV derivation")))
          (real_models ()));
    Alcotest.test_case "symbolic bounds hold numerically, every model, r <= 2"
      `Quick (fun () ->
        let checked = ref 0 in
        List.iter
          (fun ((module M : MC.MODEL) as m) ->
            List.iter
              (fun (n, r) ->
                let spec = { spec2 with MC.n; r } in
                match M.validate spec with
                | Error _ -> ()
                | Ok spec -> (
                    match Solver.symbolic_model m spec with
                    | None -> ()
                    | Some s ->
                        incr checked;
                        let numeric =
                          Homology.connectivity (M.rounds spec (input_simplex n))
                        in
                        if numeric < s.Solver.connectivity then
                          Alcotest.fail
                            (Printf.sprintf
                               "%s n=%d r=%d: numeric %d < symbolic bound %d \
                                (%s)"
                               M.name n r numeric s.Solver.connectivity
                               s.Solver.rule)))
              [ (2, 0); (2, 1); (2, 2); (3, 0); (3, 1) ])
          (real_models ());
        Alcotest.(check bool) "some bounds were checked" true (!checked > 0));
    Alcotest.test_case "Corollary 6 psph bound holds numerically" `Quick
      (fun () ->
        List.iter
          (fun (n, values) ->
            match Solver.symbolic_psph ~n ~values with
            | None -> Alcotest.fail "no psph bound"
            | Some s ->
                let c =
                  Psph.realize ~vertex:Psph.default_vertex
                    (Psph.uniform
                       ~base:(Simplex.proc_simplex n)
                       (List.init values (fun v -> Label.Int v)))
                in
                Alcotest.(check string) "rule" "Corollary 6" s.Solver.rule;
                Alcotest.(check bool)
                  (Printf.sprintf "n=%d values=%d" n values)
                  true
                  (Homology.connectivity c >= s.Solver.connectivity))
          [ (0, 1); (1, 2); (2, 2); (2, 3); (3, 2) ]);
  ]

(* ------------------------------------------------------------------ *)
(* canonical encoding: golden pins + the cache-key regression guard    *)
(* ------------------------------------------------------------------ *)

(* the exact historical byte format for the extension-free models (a
   change here invalidates every on-disk memo store and warmed replica),
   and the canonical extended form for the adversary-parameterized ones *)
let golden_encode_tests =
  [
    Alcotest.test_case "encode emits the pinned canonical bytes" `Quick
      (fun () ->
        List.iter
          (fun (name, expect) ->
            Alcotest.(check string)
              name expect
              (MC.encode (MC.get name) MC.default_spec))
          [
            ("async", "async:n=2,f=1,k=0,p=0,r=1");
            ("sync", "sync:n=2,f=0,k=1,p=0,r=1");
            ("semi", "semi:n=2,f=0,k=1,p=2,r=1");
            ("iis", "iis:n=2,f=0,k=0,p=0,r=1");
            ("byz", "byz:n=2,f=0,k=1,p=0,r=1,t=1,equiv=1");
            ("dyn", "dyn:n=2,f=0,k=0,p=0,r=1,adv=0");
          ]);
    Alcotest.test_case "ext payloads canonicalize: order, defaults, junk" `Quick
      (fun () ->
        let byz = MC.get "byz" in
        (* declared order wins over payload order; unknown keys vanish *)
        Alcotest.(check string)
          "reordered + junk" "byz:n=2,f=0,k=1,p=0,r=1,t=2,equiv=0"
          (MC.encode byz
             {
               MC.default_spec with
               ext = [ ("equiv", 0); ("junk", 7); ("t", 2) ];
             });
        (* a partial payload fills the missing defaults *)
        Alcotest.(check string)
          "partial" "byz:n=2,f=0,k=1,p=0,r=1,t=3,equiv=1"
          (MC.encode byz { MC.default_spec with ext = [ ("t", 3) ] });
        let dyn = MC.get "dyn" in
        Alcotest.(check bool) "adv classes key differently" false
          (MC.encode dyn { MC.default_spec with ext = [ ("adv", 0) ] }
          = MC.encode dyn { MC.default_spec with ext = [ ("adv", 1) ] }));
  ]

(* random ext payload against a model's declaration: each declared key
   present or absent, values small, order possibly reversed, plus an
   occasional undeclared key (which normalize must drop) *)
let gen_ext (module M : MC.MODEL) =
  QCheck2.Gen.(
    list_repeat (List.length M.ext_params) (option (int_range 0 3))
    >>= fun vals ->
    bool >>= fun rev ->
    bool |> map (fun junk ->
        let entries =
          List.concat
            (List.map2
               (fun ep v ->
                 match v with
                 | None -> []
                 | Some v -> [ (ep.MC.ep_name, v) ])
               M.ext_params vals)
        in
        let entries = if rev then List.rev entries else entries in
        if junk then entries @ [ ("zzz-junk", 1) ] else entries))

let gen_spec (module M : MC.MODEL) =
  QCheck2.Gen.(
    int_range 0 3 >>= fun n ->
    int_range 0 3 >>= fun f ->
    int_range 0 3 >>= fun k ->
    int_range 1 3 >>= fun p ->
    int_range 0 2 >>= fun r ->
    gen_ext (module M) |> map (fun ext -> { MC.n; f; k; p; r; ext }))

(* the satellite guard: a silent encode collision poisons the memo store
   and every replica warmed from it, so [encode] must be injective on
   normalized specs — equal strings iff equal normalized specs — and
   deterministic across calls *)
let encode_injective_props =
  let open QCheck2 in
  List.map
    (fun ((module M : MC.MODEL) as m) ->
      Test.make ~count:200
        ~name:(M.name ^ ": encode injective on normalized specs, and stable")
        Gen.(pair (gen_spec (module M)) (gen_spec (module M)))
        (fun (s1, s2) ->
          let e1 = MC.encode m s1 and e2 = MC.encode m s2 in
          String.equal e1 (MC.encode m s1)
          && Bool.equal (String.equal e1 e2) (M.normalize s1 = M.normalize s2)))
    (MC.all ())
  |> List.map QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* the Byzantine model against the Mendes-Herlihy bound                *)
(* ------------------------------------------------------------------ *)

let byz_spec ~n ~t ~k ~r =
  { MC.default_spec with n; k; r; ext = [ ("t", t) ] }

let byz_point (n, t, k, r, expect) =
  let ((module B : MC.MODEL) as byz) = MC.get "byz" in
  let spec =
    match B.validate (byz_spec ~n ~t ~k ~r) with
    | Ok spec -> spec
    | Error msg -> Alcotest.fail msg
  in
  let label = Printf.sprintf "n=%d t=%d k=%d r=%d" n t k r in
  (* the implementation's guard must agree with the paper's closed form:
     the lemma applies exactly for r <= ceil(t/k) rounds (and n >= rk+k) *)
  let closed_form = k >= 1 && r >= 1 && r <= (t + k - 1) / k && n >= (r * k) + k in
  let bound = B.expected_connectivity spec ~m:n in
  Alcotest.(check bool)
    (label ^ " lemma applies iff r <= ceil(t/k) and n >= rk+k")
    closed_form (bound <> None);
  Alcotest.(check (option int)) (label ^ " bound") expect bound;
  match bound with
  | None -> ()
  | Some b ->
      let c = B.rounds spec (input_simplex n) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: numeric >= %d (claimed %s)" label b
           (match expect with Some e -> string_of_int e | None -> "-"))
        true
        (Homology.is_k_connected c b);
      (* and the check-mode invariant end to end: the solver's symbolic
         tier never claims more than the numeric tier delivers *)
      (match Solver.symbolic_model byz spec with
      | Some s ->
          Alcotest.(check bool)
            (label ^ " solver claim within numeric") true
            (s.Solver.connectivity <= Homology.connectivity c)
      | None -> Alcotest.fail (label ^ ": lemma tier missing"))

let byz_grid_tests =
  [
    Alcotest.test_case "ceil(t/k) bound on the quick grid" `Quick (fun () ->
        List.iter byz_point
          [
            (2, 1, 1, 1, Some 0);
            (3, 1, 1, 1, Some 0);
            (2, 1, 1, 2, None) (* budget spent: r > ceil(t/k) *);
            (2, 1, 2, 1, None) (* n < rk + k *);
            (2, 0, 1, 1, None) (* no corruption at all *);
          ]);
    Alcotest.test_case "ceil(t/k) bound on the big grid" `Slow (fun () ->
        List.iter byz_point
          [
            (4, 2, 2, 1, Some 1) (* (k-1)-connected with k=2 exposures *);
            (3, 2, 1, 2, Some 0) (* two rounds into a budget of two *);
          ]);
    Alcotest.test_case "equivocation mode changes the complex and the key"
      `Quick (fun () ->
        let ((module B : MC.MODEL) as byz) = MC.get "byz" in
        let spec equiv =
          match
            B.validate
              { MC.default_spec with ext = [ ("t", 1); ("equiv", equiv) ] }
          with
          | Ok spec -> spec
          | Error msg -> Alcotest.fail msg
        in
        Alcotest.(check bool) "keys differ" false
          (MC.encode byz (spec 0) = MC.encode byz (spec 1));
        let s = input_simplex 2 in
        let c0 = B.one_round (spec 0) s and c1 = B.one_round (spec 1) s in
        (* binary equivocation strictly enlarges the adversary's options *)
        Alcotest.(check bool) "equiv=none subcomplex of equiv=binary" true
          (Complex.subcomplex c0 c1);
        Alcotest.(check bool) "strictly more states under equivocation" true
          (Complex.num_simplices c1 > Complex.num_simplices c0));
    Alcotest.test_case "exposed processes leave; budget shrinks across rounds"
      `Quick (fun () ->
        let (module B : MC.MODEL) = MC.get "byz" in
        let spec =
          match B.validate (byz_spec ~n:2 ~t:1 ~k:1 ~r:2) with
          | Ok spec -> spec
          | Error msg -> Alcotest.fail msg
        in
        let c = B.rounds spec (input_simplex 2) in
        (* t = 1: at most one process is ever exposed, so every facet
           keeps at least 2 of the 3 processes *)
        List.iter
          (fun s ->
            Alcotest.(check bool) "facet cardinality" true
              (Pid.Set.cardinal (Simplex.ids s) >= 2))
          (Complex.facets c));
  ]

(* ------------------------------------------------------------------ *)
(* the dynamic-network model and its adversary classes                 *)
(* ------------------------------------------------------------------ *)

let dyn_spec adv = { MC.default_spec with ext = [ ("adv", adv) ] }

let dyn_validated adv =
  let (module D : MC.MODEL) = MC.get "dyn" in
  match D.validate (dyn_spec adv) with
  | Ok spec -> spec
  | Error msg -> Alcotest.fail msg

let dyn_tests =
  [
    Alcotest.test_case "digraph classes: star is rooted, not strong" `Quick
      (fun () ->
        let open Psph_model in
        let pid = Pid.of_int in
        let alive = Pid.Set.of_list [ pid 0; pid 1; pid 2 ] in
        let star =
          (* everyone hears root 0 (and itself); 0 hears only itself *)
          Pid.Map.of_seq
            (List.to_seq
               [
                 (pid 0, Pid.Set.singleton (pid 0));
                 (pid 1, Pid.Set.of_list [ pid 0; pid 1 ]);
                 (pid 2, Pid.Set.of_list [ pid 0; pid 2 ]);
               ])
        in
        Alcotest.(check bool) "star rooted" true (Round_schedule.rooted star);
        Alcotest.(check bool) "star not strong" false
          (Round_schedule.strongly_connected star);
        let silent =
          Pid.Map.of_seq
            (Seq.map (fun q -> (q, Pid.Set.singleton q)) (Pid.Set.to_seq alive))
        in
        Alcotest.(check bool) "silence not rooted" false
          (Round_schedule.rooted silent);
        let complete =
          Pid.Map.of_seq
            (Seq.map (fun q -> (q, alive)) (Pid.Set.to_seq alive))
        in
        Alcotest.(check bool) "complete strong" true
          (Round_schedule.strongly_connected complete);
        let all = Round_schedule.digraphs ~alive in
        Alcotest.(check int) "closed-form count"
          (Round_schedule.digraph_count ~alive_count:3)
          (List.length all);
        let rooted = List.filter Round_schedule.rooted all in
        let strong = List.filter Round_schedule.strongly_connected all in
        Alcotest.(check bool) "strong < rooted < all" true
          (List.length strong < List.length rooted
          && List.length rooted < List.length all));
    Alcotest.test_case "one facet per allowed digraph" `Quick (fun () ->
        let open Psph_model in
        let (module D : MC.MODEL) = MC.get "dyn" in
        let s = input_simplex 2 in
        let all = Round_schedule.digraphs ~alive:(Simplex.ids s) in
        List.iter
          (fun (adv, keep) ->
            let expected = List.length (List.filter keep all) in
            let c = D.one_round (dyn_validated adv) s in
            Alcotest.(check int)
              (Printf.sprintf "adv=%d facet count" adv)
              expected
              (List.length (Complex.facets c)))
          [
            (0, Round_schedule.rooted);
            (1, Round_schedule.strongly_connected);
            (2, fun _ -> true);
          ]);
    Alcotest.test_case "bitmask class predicate agrees on every digraph (1-4 processes)"
      `Quick (fun () ->
        let open Psph_model in
        List.iter
          (fun m ->
            let alive = Pid.Set.of_range 0 (m - 1) in
            List.iter
              (fun g ->
                let ins =
                  Array.init m (fun i ->
                      Pid.Set.fold
                        (fun q acc -> acc lor (1 lsl Pid.to_int q))
                        (Pid.Map.find (Pid.of_int i) g) 0)
                in
                List.iter
                  (fun adv ->
                    Alcotest.(check bool)
                      (Printf.sprintf "m=%d %s" m
                         (Dyn_net_complex.adversary_name adv))
                      (dyn_allowed adv g)
                      (Dyn_net_complex.allows adv ins))
                  [ Rooted; Strong; All ])
              (Round_schedule.digraphs ~alive))
          [ 1; 2; 3; 4 ]);
    Alcotest.test_case "adv=all is one pseudosphere of heard sets per round"
      `Quick (fun () ->
        let open Psph_model in
        List.iter
          (fun (n, simplices, top_betti) ->
            let s = input_simplex n in
            let ids = Simplex.ids s in
            let state q = Option.get (Simplex.label_of q s) in
            let heard p =
              Failure.power_set (Pid.Set.remove p ids)
              |> List.map (fun m ->
                     Label.List
                       (List.map
                          (fun q -> Label.Pair (Label.Pid q, state q))
                          (Pid.Set.elements (Pid.Set.add p m))))
            in
            let psi = Psph.create ~base:s ~values:heard in
            let c = Dyn_net_complex.one_round All s in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d equals psi(s; heard sets)" n)
              true
              (Complex.equal c (Psph.realize psi));
            Alcotest.(check int)
              (Printf.sprintf "n=%d simplices" n)
              simplices (Complex.num_simplices c);
            Alcotest.(check (array int))
              (Printf.sprintf "n=%d reduced betti" n)
              (Array.init (n + 1) (fun d -> if d = n then top_betti else 0))
              (Homology.reduced_betti c))
          [ (2, 124, 27); (3, 6560, 2401) ]);
    Alcotest.test_case "one round equals the digraph reference (n=0,1; every class)"
      `Quick (fun () ->
        List.iter
          (fun n ->
            let s = input_simplex n in
            List.iter
              (fun adv ->
                Alcotest.(check bool)
                  (Printf.sprintf "n=%d %s" n (Dyn_net_complex.adversary_name adv))
                  true
                  (Complex.equal
                     (Dyn_net_complex.one_round adv s)
                     (Complex.of_facets (dyn_reference_facets adv s))))
              [ Rooted; Strong; All ])
          [ 0; 1 ];
        Alcotest.(check bool) "empty carrier" true
          (Complex.is_empty (Dyn_net_complex.one_round All Simplex.empty)));
    Alcotest.test_case "heard-set vertices are shared physically" `Quick
      (fun () ->
        let c = Dyn_net_complex.one_round All (input_simplex 2) in
        let vs = Complex.vertices c in
        Alcotest.(check int) "2^(m-1) vertices per process" 12 (List.length vs);
        List.iter
          (fun f ->
            List.iter
              (fun v ->
                Alcotest.(check bool) "physically one vertex" true
                  (List.exists (fun w -> w == v) vs))
              (Simplex.vertices f))
          (Complex.facets c));
    Alcotest.test_case "face codes that would overflow int are refused" `Quick
      (fun () ->
        (* 9 processes: (2^8 + 1)^9 codes exceed max_int; refused before
           any of the 2^72 digraphs is enumerated *)
        match Dyn_net_complex.one_round All (input_simplex 8) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "built a complex whose face codes overflow");
    Alcotest.test_case "adversary classes nest as subcomplexes" `Quick
      (fun () ->
        let (module D : MC.MODEL) = MC.get "dyn" in
        let s = input_simplex 2 in
        let c adv = D.rounds (dyn_validated adv) s in
        Alcotest.(check bool) "strong within rooted" true
          (Complex.subcomplex (c 1) (c 0));
        Alcotest.(check bool) "rooted within all" true
          (Complex.subcomplex (c 0) (c 2)));
    Alcotest.test_case "rooted/all claim connectedness and deliver it; \
                        strong stays numeric" `Quick (fun () ->
        let ((module D : MC.MODEL) as dyn) = MC.get "dyn" in
        let s = input_simplex 2 in
        List.iter
          (fun adv ->
            let spec = dyn_validated adv in
            let claim = D.expected_connectivity spec ~m:2 in
            (match adv with
            | 1 -> Alcotest.(check (option int)) "strong: no claim" None claim
            | _ -> Alcotest.(check (option int)) "claimed" (Some 0) claim);
            let c = D.rounds spec s in
            Alcotest.(check bool)
              (Printf.sprintf "adv=%d connected" adv)
              true
              (Homology.is_k_connected c 0);
            match Solver.symbolic_model dyn spec with
            | Some sres ->
                Alcotest.(check bool) "solver claim within numeric" true
                  (sres.Solver.connectivity <= Homology.connectivity c)
            | None ->
                Alcotest.(check bool) "only strong lacks a derivation" true
                  (adv = 1))
          [ 0; 1; 2 ]);
    Alcotest.test_case "two rounds stay connected (rooted, n=2)" `Slow
      (fun () ->
        let (module D : MC.MODEL) = MC.get "dyn" in
        let spec =
          match D.validate { (dyn_spec 0) with r = 2 } with
          | Ok spec -> spec
          | Error msg -> Alcotest.fail msg
        in
        let c = D.rounds spec (input_simplex 2) in
        Alcotest.(check bool) "connected" true (Homology.is_k_connected c 0));
  ]

(* ------------------------------------------------------------------ *)
(* round labels share the previous round; keys fold the index          *)
(* ------------------------------------------------------------------ *)

(* the previous-round label and the heard labels of a round label, as
   View's encoding lays them out *)
let round_parts = function
  | Label.Pair (Label.Int 1, Label.Pair (prev, Label.List heard)) ->
      ( prev,
        List.map
          (function Label.Pair (Label.Pid q, l) -> (q, l) | _ -> assert false)
          heard )
  | Label.Pair (Label.Int 2, Label.Pair (Label.Int _, Label.Pair (prev, Label.List heard)))
    ->
      ( prev,
        List.map
          (function
            | Label.List [ Label.Pid q; Label.Int _; l ] -> (q, l) | _ -> assert false)
          heard )
  | l -> Alcotest.failf "not a round label: %a" Label.pp l

(* the registry specs with n <= 3 and r <= 2, every dyn adversary class;
   a second round only where the first has at most 1024 facets, the
   bench's gate *)
let small_registry_specs () =
  List.concat_map
    (fun (module M : MC.MODEL) ->
      let exts =
        if M.name = "dyn" then List.map (fun adv -> [ ("adv", adv) ]) [ 0; 1; 2 ]
        else [ [] ]
      in
      List.concat_map
        (fun n ->
          List.concat_map
            (fun ext ->
              match M.validate { MC.default_spec with n; r = 1; ext } with
              | Error _ -> []
              | Ok spec1 ->
                  let build r =
                    E.build (E.Model { model = M.name; params = { spec1 with r } })
                  in
                  let c1 = build 1 in
                  let name r = Printf.sprintf "%s r=%d" (MC.encode (module M) spec1) r in
                  (name 1, c1)
                  ::
                  (if List.length (Complex.facets c1) <= 1024 then [ (name 2, build 2) ]
                   else []))
            exts)
        [ 1; 2; 3 ])
    (real_models ())

let key_index_tests =
  [
    Alcotest.test_case "r=2 round labels hold round-1 labels physically" `Quick
      (fun () ->
        List.iter
          (fun name ->
            let c =
              E.build
                (E.Model { model = name; params = { MC.default_spec with n = 2; r = 2 } })
            in
            List.iter
              (function
                | Vertex.Proc (q, l) ->
                    let prev, heard = round_parts l in
                    Alcotest.(check int) (name ^ " prev is round 1") 1
                      (Psph_model.View.rounds (Psph_model.View.of_label prev));
                    (* a process always hears itself: its heard entry and
                       its previous state are the one round-1 vertex label *)
                    Alcotest.(check bool)
                      (Printf.sprintf "%s P%d prev shared" name q)
                      true
                      (List.assoc q heard == prev)
                | v -> Alcotest.failf "%s: unexpected vertex %a" name Vertex.pp v)
              (Complex.vertices c))
          [ "sync"; "semi"; "async"; "iis" ]);
    Alcotest.test_case "Key.of_index equals the direct fold" `Slow (fun () ->
        List.iter
          (fun (name, c) ->
            Alcotest.(check string) name (Key_reference.hex c)
              (Key.to_hex (Key.of_index (Simplex_index.create c))))
          ([
             ("empty", Complex.empty);
             ("point", Complex.of_facets [ Simplex.of_list [ Vertex.anon 0 ] ]);
             ("wide keys", Test_bitmat.wide_complex ());
           ]
          @ small_registry_specs ()));
    Alcotest.test_case "Key.of_index refuses a cut index" `Quick (fun () ->
        let c = Complex.of_facets [ Simplex.of_list (List.init 3 Vertex.anon) ] in
        Alcotest.check_raises "cut"
          (Invalid_argument "Key.of_index: the index omits dimensions") (fun () ->
            ignore (Key.of_index (Simplex_index.create ~max_dim:1 c))));
  ]

let suites =
  [
    ("models.registry", registry_tests);
    ("models.normalize", normalize_tests);
    ("models.cache", cache_tests);
    ("models.encode", golden_encode_tests @ encode_injective_props);
    ("models.decomposition", decomposition_props @ decomposition_n4);
    ("models.rounds", rounds_tests);
    ("models.compose", compose_tests);
    ("models.solver", solver_tests);
    ("models.byz", byz_grid_tests);
    ("models.dyn", dyn_tests);
    ("models.key_index", key_index_tests);
  ]
