(* The tier-aware correctness oracle.

   Truth is computed in-process, outside any timed window:
   - numeric truth: reduced-homology Betti vector and connectivity by
     direct elimination on the built complex (Homology.betti /
     Homology.connectivity, no Morse precollapse, no cache), and the
     content key Key.to_hex (Key.of_complex c);
   - symbolic truth: the in-process Solver derivation and the key of the
     canonical spec string.

   Cached and numeric answers must equal the numeric truth.  Symbolic
   answers are one-sided lower bounds, so they must equal the in-process
   Solver result and be at most the numeric connectivity where the
   latter is known — never required to equal it. *)

open Psph_topology
module Engine = Psph_engine.Engine
module Key = Psph_engine.Key
module Codec = Psph_net.Codec

type numeric = { key : string; betti : int array; connectivity : int }

type truth = {
  numeric : numeric option;  (** known when the complex was built *)
  symbolic : (string * int) option;
      (** expected key and bound of a symbolic answer *)
}

let numeric_of_complex c =
  {
    key = Key.to_hex (Key.of_complex c);
    betti = Homology.betti c;
    connectivity = Homology.connectivity c;
  }

let check truth (reply : Codec.reply) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match reply with
  | Codec.Failed { message; _ } -> err "server error: %s" message
  | Codec.Result { key; betti; connectivity; solver; _ } -> (
      let tier = Option.map (fun (p : Engine.provenance) -> p.tier) solver in
      match (tier, truth) with
      | None, _ -> err "answer carries no solver provenance"
      | Some Engine.Symbolic, { symbolic = None; _ } ->
          err "symbolic answer where no derivation applies"
      | Some Engine.Symbolic, { symbolic = Some (skey, bound); numeric } ->
          if key <> skey then err "symbolic key %s, expected %s" key skey
          else if betti <> None then err "symbolic answer carries betti"
          else (
            match connectivity with
            | None -> err "symbolic answer without connectivity"
            | Some c when c <> bound ->
                err "symbolic connectivity %d, solver derives %d" c bound
            | Some c -> (
                match numeric with
                | Some n when c > n.connectivity ->
                    err "symbolic bound %d exceeds numeric connectivity %d" c
                      n.connectivity
                | _ -> Ok ()))
      | Some (Engine.Cached | Engine.Numeric), { numeric = None; _ } ->
          err "numeric answer for a query without numeric truth"
      | Some (Engine.Cached | Engine.Numeric), { numeric = Some n; _ } ->
          if key <> n.key then err "key %s, expected %s" key n.key
          else if betti = None && connectivity = None then err "empty answer"
          else if Option.fold ~none:false ~some:(fun b -> b <> n.betti) betti
          then err "betti mismatch"
          else if
            Option.fold ~none:false
              ~some:(fun c -> c <> n.connectivity)
              connectivity
          then err "connectivity mismatch"
          else Ok ())
