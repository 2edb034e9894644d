open Psph_topology

type adversary = Rooted | Strong | All

let adversary_of_int = function
  | 0 -> Some Rooted
  | 1 -> Some Strong
  | 2 -> Some All
  | _ -> None

let adversary_name = function
  | Rooted -> "rooted"
  | Strong -> "strong"
  | All -> "all"

(* forward reachability over edges u -> v (bit u set in ins.(v)): grow the
   seen mask with every process hearing from it until a fixpoint *)
let reach ins u =
  let rec grow seen =
    let next = ref seen in
    Array.iteri (fun v iv -> if iv land seen <> 0 then next := !next lor (1 lsl v)) ins;
    if !next = seen then seen else grow !next
  in
  grow (1 lsl u)

let allows adv ins =
  let m = Array.length ins in
  let spans u = reach ins u = (1 lsl m) - 1 in
  match adv with
  | All -> true
  | Rooted -> Seq.exists spans (Seq.init m Fun.id)
  | Strong -> Seq.for_all spans (Seq.init m Fun.id)

module Codes = Hashtbl.Make (Int)

(* One round is a filtered pseudosphere product.  Process i (the i-th pid
   of [s]) picks its in-neighbourhood from the 2^(m-1) subsets of the
   others, plus itself, independently of everyone else; the class keeps
   the choice tuples whose digraph it allows.  Each heard-set vertex is
   built once and shared physically by every facet choosing it.

   A face of a kept tuple picks, per process, either its option or
   nothing: digit i of its code, in base 2^(m-1) + 1, is 0 for absent and
   j + 1 for option j.  Faces are marked with the closure pruning of
   [Complex.add_facet] (a marked face has all its faces marked), so the
   table holds exactly the distinct faces.  Each is then built once, in
   pid order, which is already the sorted vertex order. *)
let one_round adv s =
  let pids = Array.of_list (Pid.Set.elements (Simplex.ids s)) in
  let m = Array.length pids in
  let overflow () = invalid_arg "Dyn_net_complex.one_round: face codes overflow int" in
  if m = 0 then Complex.empty
  else begin
    if m > Sys.int_size - 2 then overflow ();
    let k = 1 lsl (m - 1) in
    let base = k + 1 in
    let weight = Array.make (m + 1) 1 in
    for i = 1 to m do
      if weight.(i - 1) > max_int / base then overflow ();
      weight.(i) <- weight.(i - 1) * base
    done;
    let label i = Option.get (Simplex.label_of pids.(i) s) in
    let heard = Array.init m (fun q -> Label.Pair (Label.Pid pids.(q), label q)) in
    (* option j of process i: the in-neighbourhood mask j with bit i
       inserted *)
    let mask_of i j =
      let low = j land ((1 lsl i) - 1) in
      low lor (1 lsl i) lor ((j lxor low) lsl 1)
    in
    let vertex i mask =
      let heard_from =
        List.filter_map
          (fun q -> if mask land (1 lsl q) <> 0 then Some heard.(q) else None)
          (List.init m Fun.id)
      in
      Vertex.proc pids.(i) (Label.Pair (label i, Label.List heard_from))
    in
    let options = Array.init m (fun i -> Array.init k (mask_of i)) in
    let vertices = Array.init m (fun i -> Array.map (vertex i) options.(i)) in
    let seen = Codes.create 1024 in
    let rec mark code =
      if code <> 0 && not (Codes.mem seen code) then begin
        Codes.add seen code ();
        for i = 0 to m - 1 do
          let d = code / weight.(i) mod base in
          if d > 0 then mark (code - (d * weight.(i)))
        done
      end
    in
    let ins = Array.make m 0 in
    let rec choose i code =
      if i = m then (if allows adv ins then mark code)
      else
        for j = 0 to k - 1 do
          ins.(i) <- options.(i).(j);
          choose (i + 1) (code + ((j + 1) * weight.(i)))
        done
    in
    choose 0 0;
    let face code =
      let rec go i acc =
        if i < 0 then acc
        else
          let d = code / weight.(i) mod base in
          go (i - 1) (if d > 0 then vertices.(i).(d - 1) :: acc else acc)
      in
      Simplex.of_sorted_list (go (m - 1) [])
    in
    Complex.of_closure (Codes.fold (fun code () acc -> face code :: acc) seen [])
  end

(* Every digraph facet keeps all m processes, so no facet of a round is a
   face of another and the facets of the round complex are exactly the
   digraph facets: one branch recurses on each of them. *)
let rounds adv ~r s = Carrier.compose r s ~branches:(fun s -> [ one_round adv s ])

let over_inputs adv ~r inputs = Carrier.over_facets (rounds adv ~r) inputs

(* No process ever leaves the carrier in a dynamic network, so the r-round
   complex over an m-simplex keeps every facet at dimension m.  For the
   rooted and unrestricted classes it is connected (0-connected): the
   digraph in which some root broadcasts and nothing else is delivered
   gives each non-root a vertex shared with every other rooted digraph
   having the same root-silence, and varying one in-neighborhood at a time
   walks any digraph to such a star while staying rooted; across rounds
   the shared faces glue the pieces.  The strong class has no such
   one-edge-at-a-time path through shared solo vertices, so no symbolic
   claim is made and the solver falls back to the numeric tier. *)
let expected_connectivity adv ~m:_ ~r =
  if r = 0 then None (* solver's r = 0 tier already answers *)
  else match adv with Rooted | All -> Some 0 | Strong -> None
