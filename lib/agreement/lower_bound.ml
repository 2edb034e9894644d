open Psph_topology
open Pseudosphere

let corollary13_impossible ~f ~k = k <= f

let theorem18_rounds ~n ~f ~k = Sync_complex.theorem18_lower_bound ~n ~f ~k

let corollary22_time = Semi_sync_complex.corollary22_time

type check = {
  label : string;
  connectivity : int;
  expected_connectivity : int;
  decision : Psph_model.Value.t Decision.outcome;
  impossible_expected : bool;
}

let pp_verdict ppf = function
  | Decision.Solution _ -> Format.pp_print_string ppf "solvable"
  | Decision.Impossible -> Format.pp_print_string ppf "impossible"
  | Decision.Unknown -> Format.pp_print_string ppf "unknown"

let pp_check ppf c =
  Format.fprintf ppf "%s: conn=%d (claimed >= %d), decision=%a (expected %s)"
    c.label c.connectivity c.expected_connectivity pp_verdict c.decision
    (if c.impossible_expected then "impossible" else "solvable")

let holds c =
  c.connectivity >= c.expected_connectivity
  &&
  match (c.decision, c.impossible_expected) with
  | Decision.Impossible, true | Decision.Solution _, false -> true
  | Decision.Impossible, false | Decision.Solution _, true | Decision.Unknown, _
    ->
      false

let measure ~label ~complex ~k_task ~expected_connectivity ~impossible_expected =
  let connectivity = Homology.connectivity ~cap:(k_task + 1) complex in
  let decision =
    Decision.solve ~complex ~allowed:Task.allowed ~k:k_task ()
  in
  { label; connectivity; expected_connectivity; decision; impossible_expected }

let async_check ~n ~f ~k ~r ~values =
  let inputs = Input_complex.make ~n ~values in
  let complex = Async_complex.over_inputs ~n ~f ~r inputs in
  measure
    ~label:(Printf.sprintf "async n=%d f=%d k=%d r=%d" n f k r)
    ~complex ~k_task:k
    ~expected_connectivity:(Async_complex.lemma12_expected_connectivity ~m:n ~n ~f)
    ~impossible_expected:(corollary13_impossible ~f ~k)

let sync_check ~n ~k_round ~k_task ~r ~values =
  let inputs = Input_complex.make ~n ~values in
  let complex = Sync_complex.over_inputs ~k:k_round ~r inputs in
  (* Theorem 18's complex sustains impossibility while n >= rk + k *)
  let impossible_expected = n >= (r * k_round) + k_round && k_task <= k_round in
  measure
    ~label:(Printf.sprintf "sync n=%d k=%d r=%d task=%d-set" n k_round r k_task)
    ~complex ~k_task
    ~expected_connectivity:
      (if n >= (r * k_round) + k_round then
         Sync_complex.lemma16_expected_connectivity ~m:n ~n ~k:k_round
       else -2)
    ~impossible_expected

let semi_check ~n ~k_round ~k_task ~p ~r ~values =
  let inputs = Input_complex.make ~n ~values in
  let complex = Semi_sync_complex.over_inputs ~k:k_round ~p ~n ~r inputs in
  let impossible_expected = n >= (r + 1) * k_round && k_task <= k_round in
  measure
    ~label:
      (Printf.sprintf "semi n=%d k=%d p=%d r=%d task=%d-set" n k_round p r k_task)
    ~complex ~k_task
    ~expected_connectivity:
      (if n >= (r + 1) * k_round then
         Semi_sync_complex.lemma21_expected_connectivity ~m:n ~n ~k:k_round
       else -2)
    ~impossible_expected
