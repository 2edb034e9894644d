open Psph_topology
open Psph_model

type structure = Pid.t -> Pid.Set.t list

let async_structure ~n ~f ~alive q =
  ignore n;
  let others = Pid.Set.remove q alive in
  Failure.power_set others |> List.filter (fun s -> Pid.Set.cardinal s <= f)

let sync_structure ~alive ~failed q =
  ignore alive;
  ignore q;
  Failure.power_set failed

let realize_round ~universe ~base structure =
  (* [universe] is the global state supplying heard states; [base] the
     simplex of processes taking the round (its vertices are a subset of
     the universe's) *)
  let alive = Simplex.ids universe in
  let values q =
    structure q
    |> List.map (fun suspects -> Label.Pid_set (Pid.Set.diff alive suspects))
    |> List.sort_uniq Label.compare
  in
  let ps = Psph.create ~base ~values in
  let vertex q base_label = function
    | Label.Pid_set heard_set ->
        let heard =
          Pid.Set.elements heard_set
          |> List.map (fun r ->
                 match Simplex.label_of r universe with
                 | Some l -> (r, l)
                 | None -> invalid_arg "Rrfd: heard pid outside simplex")
        in
        Vertex.proc q (View.round_label ~prev:base_label ~heard)
    | _ -> assert false
  in
  Psph.realize ~vertex ps

let one_round s structure = realize_round ~universe:s ~base:s structure

let agrees_with_async ~n ~f s =
  let alive = Simplex.ids s in
  if Pid.Set.cardinal alive < n + 1 then
    (* the f-suspects reading of the detector matches the paper's
       "receive at least n - f + 1 messages" only under full
       participation *)
    invalid_arg "Rrfd.agrees_with_async: requires full participation"
  else
    Complex.equal
      (one_round s (async_structure ~n ~f ~alive))
      (Async_complex.one_round ~n ~f s)

let agrees_with_sync s k =
  let alive = Simplex.ids s in
  let survivors_simplex = Simplex.without_ids k s in
  if Pid.Set.is_empty (Pid.Set.diff alive k) then
    Complex.is_empty (Sync_complex.one_round_failing s k)
  else
    Complex.equal
      (realize_round ~universe:s ~base:survivors_simplex
         (sync_structure ~alive ~failed:k))
      (Sync_complex.one_round_failing s k)
