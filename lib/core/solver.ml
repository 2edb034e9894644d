open Psph_topology

type symbolic = {
  connectivity : int;
  rule : string;
  steps : int;
  proof : Mayer_vietoris.proof option;
}

(* The canonical input assignment every front end (engine, psc, benches)
   uses for an n-dimensional query: process i starts with value i mod 2.
   The symbolic tier never realizes a complex, but the decomposition is
   taken over this simplex so the derivation talks about exactly the
   complex the numeric tier would build. *)
let standard_inputs n = List.init (n + 1) (fun i -> (i, i mod 2))
let standard_input n = Input_complex.simplex_of_inputs (standard_inputs n)

(* The Mayer–Vietoris recursion splits prefix/last and recurses on both the
   prefix and its intersections with the last piece — worst-case
   exponential in the number of pieces.  Up to this cap the derivation is
   sub-millisecond (the slowest registry spec within it, semi n=8 k=1 at
   55 steps, takes about 0.7 ms in process on a 2-vCPU VM); beyond it the
   solver falls through to the closed-form lemma tier instead of risking a
   blow-up. *)
let mv_piece_cap = 20

let pieces (module M : Model_complex.MODEL) (spec : Model_complex.spec) =
  match M.pseudosphere_decomposition with
  | Some d when spec.r = 1 -> Some (d spec (standard_input spec.n))
  | _ -> None

let lemma_tier (module M : Model_complex.MODEL) (spec : Model_complex.spec) =
  match M.expected_connectivity spec ~m:spec.n with
  | Some c ->
      Some
        { connectivity = c; rule = M.connectivity_lemma; steps = 1; proof = None }
  | None -> None

let of_mv_pieces ps =
  let proof = Mayer_vietoris.union_connectivity ps in
  {
    connectivity = Mayer_vietoris.conn proof;
    rule = "Theorem 2 + Corollary 6";
    steps = Mayer_vietoris.size proof;
    proof = Some proof;
  }

let symbolic_model ((module M : Model_complex.MODEL) as m) spec =
  match M.validate spec with
  | Error msg -> invalid_arg (Printf.sprintf "Solver: %s model: %s" M.name msg)
  | Ok spec ->
      if spec.r = 0 then
        (* rounds with r = 0 is the solid input simplex: contractible *)
        Some
          {
            connectivity = spec.n;
            rule = "solid input simplex (r=0)";
            steps = 1;
            proof = None;
          }
      else begin
        let mv =
          match pieces m spec with
          | None -> None
          | Some ps ->
              (* one piece past the cap is enough to know it is exceeded:
                 the rest of the decomposition is never built *)
              let ps = List.of_seq (Seq.take (mv_piece_cap + 1) ps) in
              if List.length ps <= mv_piece_cap then Some (of_mv_pieces ps)
              else None
        in
        match mv with Some _ -> mv | None -> lemma_tier m spec
      end

let symbolic_psph ~n ~values =
  if n < 0 || values < 0 then None
  else begin
    let ps =
      Psph.uniform
        ~base:(Simplex.proc_simplex n)
        (List.init values (fun v -> Label.Int v))
    in
    Some
      {
        connectivity = Psph.connectivity_bound ps;
        rule = "Corollary 6";
        steps = 1;
        proof = None;
      }
  end
