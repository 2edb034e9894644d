(* The symbolic tier's cost shape, checked against its meaning.

   [Mayer_vietoris.union_connectivity] prunes each list once and compares
   normalized forms; [Solver.symbolic_model] reads a decomposition lazily
   and stops one piece past the cap.  Neither may change a single node of
   a proof, so the derivation as first written — every prefix level
   pruned again, both arguments of every pairwise test normalized again —
   is kept here as the reference, and the served proofs must match it
   node for node. *)

open Psph_topology
open Pseudosphere
module MC = Model_complex

(* ------------------------------------------------------------------ *)
(* the reference derivation                                           *)
(* ------------------------------------------------------------------ *)

let ref_prune ~subsume pss =
  let pss = List.filter (fun ps -> not (Psph.is_empty ps)) pss in
  let deduped =
    List.fold_left
      (fun acc ps -> if List.exists (Psph.equal ps) acc then acc else ps :: acc)
      [] pss
    |> List.rev
  in
  if not subsume then deduped
  else
    List.filter
      (fun ps ->
        not
          (List.exists
             (fun other -> (not (Psph.equal other ps)) && Psph.subsumes other ps)
             deduped))
      deduped

let rec ref_union ~prune_subsumed pss =
  let open Mayer_vietoris in
  match ref_prune ~subsume:prune_subsumed pss with
  | [] -> Empty
  | [ ps ] -> Axiom { ps; conn = Psph.connectivity_bound ps }
  | pss -> (
      let prefix = List.filteri (fun i _ -> i < List.length pss - 1) pss in
      let last = List.nth pss (List.length pss - 1) in
      let left = ref_union ~prune_subsumed prefix in
      let right = Axiom { ps = last; conn = Psph.connectivity_bound last } in
      match
        ref_prune ~subsume:prune_subsumed
          (List.map (fun ps -> Psph.inter ps last) prefix)
      with
      | [] -> Disjoint { left; right }
      | inters ->
          let inter = ref_union ~prune_subsumed inters in
          let c = min (min (conn left) (conn right)) (conn inter + 1) in
          Glue { conn = c; left; right; inter })

let render p = Format.asprintf "%a" Mayer_vietoris.pp p

let check_same label expected got =
  Alcotest.(check int) (label ^ " conn") (Mayer_vietoris.conn expected)
    (Mayer_vietoris.conn got);
  Alcotest.(check int) (label ^ " size") (Mayer_vietoris.size expected)
    (Mayer_vietoris.size got);
  Alcotest.(check string) (label ^ " proof") (render expected) (render got)

(* every registered decomposition at n <= 6, r = 1: f, k in 0..3,
   p in 1..3, each extension code 0..3 — deduplicated on the canonical
   encoding *)
let registry_decompositions () =
  List.concat_map
    (fun ((module M : MC.MODEL) as m) ->
      let exts =
        List.fold_right
          (fun (ep : MC.ext_param) acc ->
            List.concat_map
              (fun v -> List.map (fun e -> (ep.ep_name, v) :: e) acc)
              [ 0; 1; 2; 3 ])
          M.ext_params [ [] ]
      in
      let seen = Hashtbl.create 64 in
      List.concat_map
        (fun n ->
          List.concat_map
            (fun f ->
              List.concat_map
                (fun k ->
                  List.concat_map
                    (fun p ->
                      List.filter_map
                        (fun ext ->
                          match M.validate { MC.n; f; k; p; r = 1; ext } with
                          | Error _ -> None
                          | Ok spec -> (
                              let e = MC.encode m spec in
                              if Hashtbl.mem seen e then None
                              else begin
                                Hashtbl.add seen e ();
                                match Solver.pieces m spec with
                                | Some ps -> Some (e, m, spec, ps)
                                | None -> None
                              end))
                        exts)
                    [ 1; 2; 3 ])
                [ 0; 1; 2; 3 ])
            [ 0; 1; 2; 3 ])
        [ 0; 1; 2; 3; 4; 5; 6 ])
    (MC.all ())

(* small pseudospheres over faces of a 3-simplex, values drawn from
   {0, 1, 2}: a zero mask is an empty value set (or an empty base), and
   later elements may repeat an earlier one or be cut down from it, so
   pruning meets duplicates and strictly subsumed pieces *)
let gen_pieces =
  let open QCheck2.Gen in
  let labels mask =
    List.filter_map
      (fun v -> if mask land (1 lsl v) <> 0 then Some (Label.Int v) else None)
      [ 0; 1; 2 ]
  in
  let fresh pid_mask masks =
    let keep =
      Pid.Set.of_list
        (List.filter (fun p -> pid_mask land (1 lsl p) <> 0) [ 0; 1; 2; 3 ])
    in
    Psph.create
      ~base:(Simplex.restrict_ids keep (Simplex.proc_simplex 3))
      ~values:(fun p -> labels (List.nth masks p))
  in
  map
    (fun steps ->
      List.fold_left
        (fun acc (pid_mask, masks, op) ->
          let ps = fresh pid_mask masks in
          let earlier () = List.nth acc (pid_mask mod List.length acc) in
          match acc with
          | _ :: _ when op < 2 -> acc @ [ earlier () ]
          | _ :: _ when op < 4 -> acc @ [ Psph.inter (earlier ()) ps ]
          | _ -> acc @ [ ps ])
        [] steps)
    (list_size (0 -- 7)
       (triple (0 -- 15) (list_repeat 4 (0 -- 7)) (0 -- 9)))

let print_pieces pss =
  Format.asprintf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Psph.pp)
    pss

let reference_props =
  List.map
    (fun prune_subsumed ->
      QCheck2.Test.make ~count:300 ~print:print_pieces
        ~name:
          (Printf.sprintf
             "random lists match the reference (prune_subsumed=%b)"
             prune_subsumed)
        gen_pieces
        (fun pss ->
          let expected = ref_union ~prune_subsumed pss in
          let got = Mayer_vietoris.union_connectivity ~prune_subsumed pss in
          Mayer_vietoris.conn expected = Mayer_vietoris.conn got
          && Mayer_vietoris.size expected = Mayer_vietoris.size got
          && render expected = render got))
    [ true; false ]
  |> List.map QCheck_alcotest.to_alcotest

let reference_tests =
  [
    Alcotest.test_case "served registry proofs match the reference, n <= 6"
      `Quick (fun () ->
        let served = ref 0 in
        List.iter
          (fun (label, m, spec, pieces) ->
            let pss = List.of_seq pieces in
            if List.length pss <= Solver.mv_piece_cap then begin
              match Solver.symbolic_model m spec with
              | Some { Solver.proof = Some proof; connectivity; steps; _ } ->
                  incr served;
                  check_same label (ref_union ~prune_subsumed:true pss) proof;
                  Alcotest.(check int) (label ^ " connectivity")
                    (Mayer_vietoris.conn proof) connectivity;
                  Alcotest.(check int) (label ^ " steps")
                    (Mayer_vietoris.size proof) steps
              | _ -> Alcotest.fail (label ^ ": no derivation within the cap")
            end)
          (registry_decompositions ());
        Alcotest.(check bool) "some proofs compared" true (!served > 50));
    Alcotest.test_case "registry decompositions match without subsumption"
      `Quick (fun () ->
        List.iter
          (fun (label, _, _, pieces) ->
            let pss = List.of_seq pieces in
            if List.length pss <= Solver.mv_piece_cap then
              check_same label
                (ref_union ~prune_subsumed:false pss)
                (Mayer_vietoris.union_connectivity ~prune_subsumed:false pss))
          (registry_decompositions ()));
  ]

(* ------------------------------------------------------------------ *)
(* the lazy cap                                                        *)
(* ------------------------------------------------------------------ *)

(* a model whose decomposition never ends, counting the pieces read; with
   [f > 0] it stops after [f] pieces instead *)
let endless forced : MC.model =
  (module struct
    let name = "endless"
    let doc = "an unbounded pseudosphere decomposition"
    let ext_params = []
    let normalize s = s
    let validate s = Ok s
    let round _ _ _ _ = ()

    let pseudosphere_decomposition =
      Some
        (fun (spec : MC.spec) _ ->
          let all =
            Seq.forever (fun () ->
                incr forced;
                Psph.binary 1)
          in
          if spec.f > 0 then Seq.take spec.f all else all)

    let expected_connectivity _ ~m = Some (m - 1)
    let connectivity_lemma = "endless lemma"
  end)

let cap_tests =
  [
    Alcotest.test_case "an endless decomposition is read to one past the cap"
      `Quick (fun () ->
        let forced = ref 0 in
        match
          Solver.symbolic_model (endless forced)
            { MC.default_spec with n = 3; f = 0; r = 1 }
        with
        | Some s ->
            Alcotest.(check string) "lemma tier" "endless lemma" s.Solver.rule;
            Alcotest.(check int) "lemma bound" 2 s.Solver.connectivity;
            Alcotest.(check int) "one step" 1 s.Solver.steps;
            Alcotest.(check bool) "no proof" true (s.Solver.proof = None);
            Alcotest.(check int) "pieces forced" (Solver.mv_piece_cap + 1)
              !forced
        | None -> Alcotest.fail "no answer");
    Alcotest.test_case "a decomposition of exactly the cap is derived" `Quick
      (fun () ->
        let forced = ref 0 in
        match
          Solver.symbolic_model (endless forced)
            { MC.default_spec with n = 3; f = Solver.mv_piece_cap; r = 1 }
        with
        | Some s ->
            Alcotest.(check string) "MV tier" "Theorem 2 + Corollary 6"
              s.Solver.rule;
            (* every piece is psi(P^1; {0,1}): pruning leaves one axiom *)
            Alcotest.(check int) "conn" 0 s.Solver.connectivity;
            Alcotest.(check int) "one axiom" 1 s.Solver.steps;
            Alcotest.(check int) "pieces forced" Solver.mv_piece_cap !forced
        | None -> Alcotest.fail "no answer");
  ]

(* ------------------------------------------------------------------ *)
(* the costly routed specs, pinned                                     *)
(* ------------------------------------------------------------------ *)

let pin_tests =
  [
    Alcotest.test_case "costliest routed specs keep their answers" `Quick
      (fun () ->
        List.iter
          (fun (model, n, k, conn, rule, steps) ->
            let spec = { MC.default_spec with n; k; p = 2; r = 1 } in
            let label = MC.encode (MC.get model) spec in
            match Solver.symbolic_model (MC.get model) spec with
            | Some s ->
                Alcotest.(check int) (label ^ " conn") conn s.Solver.connectivity;
                Alcotest.(check string) (label ^ " rule") rule s.Solver.rule;
                Alcotest.(check int) (label ^ " steps") steps s.Solver.steps
            | None -> Alcotest.fail (label ^ ": no answer"))
          [
            ("semi", 8, 1, 6, "Theorem 2 + Corollary 6", 55);
            ("semi", 7, 1, 5, "Theorem 2 + Corollary 6", 49);
            ("sync", 4, 2, 1, "Theorem 2 + Corollary 6", 76);
            ("semi", 8, 2, 1, "Lemma 21", 1);
            ("sync", 8, 2, 1, "Lemma 16/17", 1);
          ]);
    Alcotest.test_case "the psph bound is Psph.connectivity_bound, unlisted" `Quick
      (fun () ->
        (* computed from n and values alone, it must still be Corollary 6
           on the pseudosphere itself *)
        for n = 0 to 8 do
          for values = 0 to 4 do
            let ps =
              Psph.uniform ~base:(Simplex.proc_simplex n)
                (List.init values (fun v -> Label.Int v))
            in
            Alcotest.(check (option int))
              (Printf.sprintf "n=%d values=%d" n values)
              (Some (Psph.connectivity_bound ps))
              (Option.map
                 (fun s -> s.Solver.connectivity)
                 (Solver.symbolic_psph ~n ~values))
          done
        done);
  ]

let suites =
  [
    ("solver.reference", reference_tests @ reference_props);
    ("solver.cap", cap_tests);
    ("solver.pins", pin_tests);
  ]
