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

(* One round is a filtered pseudosphere product.  Process i (the i-th pid
   of [s]) picks its in-neighbourhood from the 2^(m-1) subsets of the
   others, plus itself, independently of everyone else; the class keeps
   the choice tuples whose digraph it allows.  Each heard-set vertex is
   built and interned once, and a kept tuple is emitted as its ids in pid
   order, which is the sorted vertex order.

   Every digraph facet keeps all m processes, so no facet of a round is a
   face of another and the facets of the round complex are exactly the
   kept tuples: one branch. *)
let round adv tbl s emit =
  let pids = Array.of_list (Pid.Set.elements (Simplex.ids s)) in
  let m = Array.length pids in
  if m > 0 then begin
    (* every option but the silent one (hearing only itself) is in some
       digraph of every class, so there are at least m (2^(m-1) - 1)
       vertices: refuse a round over the budget before listing them *)
    if m - 1 >= Sys.int_size - 2 || (1 lsl (m - 1)) - 1 > Vertex_table.max_faces / m then
      Vertex_table.over_budget ();
    let k = 1 lsl (m - 1) in
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
    let ids =
      Array.init m (fun i -> Array.map (fun mask -> Vertex_table.intern tbl (vertex i mask)) options.(i))
    in
    let ins = Array.make m 0 and buf = Array.make m 0 in
    let rec choose i =
      if i = m then (if allows adv ins then emit buf)
      else
        for j = 0 to k - 1 do
          ins.(i) <- options.(i).(j);
          buf.(i) <- ids.(i).(j);
          choose (i + 1)
        done
    in
    choose 0
  end

let one_round adv s = Carrier.rounds (round adv) 1 s

let rounds adv ~r s = Carrier.rounds (round adv) r s

let over_inputs adv ~r inputs = Carrier.over_inputs (round adv) r inputs

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
