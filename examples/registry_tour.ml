(* The model registry in action: every registered message-passing model,
   driven through one generic loop — no per-model match anywhere.

   For each model: build the one- and two-round protocol complexes over
   the standard input simplex, measure them, compare against the paper's
   claimed connectivity, and — where the model is a union of pseudospheres
   (async, sync, semi; not IIS, which is a subdivision) — machine-check
   the Lemma 11/14/19 decomposition generically.

   Run with: dune exec examples/registry_tour.exe *)

open Psph_topology
open Pseudosphere

let inputs n = List.init (n + 1) (fun i -> (i, i mod 2))

let input_simplex n = Input_complex.simplex_of_inputs (inputs n)

let () =
  Format.printf "registered models: %s@.@."
    (String.concat ", " (Model_complex.names ()));
  List.iter
    (fun ((module M : Model_complex.MODEL) as m) ->
      let spec =
        match M.validate { Model_complex.default_spec with n = 2 } with
        | Ok spec -> spec
        | Error msg -> failwith (M.name ^ ": " ^ msg)
      in
      let s = input_simplex spec.Model_complex.n in
      Format.printf "%s — %s@." M.name M.doc;
      Format.printf "  canonical spec: %s@." (Model_complex.encode m spec);
      List.iter
        (fun r ->
          let c = M.rounds { spec with Model_complex.r } s in
          Format.printf "  r=%d: %a  connectivity %d%s@." r Complex.pp_summary c
            (Homology.connectivity c)
            (match
               M.expected_connectivity { spec with Model_complex.r } ~m:2
             with
            | Some conn -> Printf.sprintf " (paper claims >= %d)" conn
            | None -> " (no claim at these parameters)"))
        [ 1; 2 ];
      (match M.pseudosphere_decomposition with
      | Some pieces ->
          Format.printf
            "  pseudosphere decomposition: %d pieces; union isomorphic to one \
             round: %b@."
            (Seq.length (pieces spec s))
            (Model_complex.decomposition_holds m spec s)
      | None ->
          Format.printf "  not a union of pseudospheres (a subdivision)@.");
      Format.printf "@.")
    (Model_complex.all ())
