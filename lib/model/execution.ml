open Psph_topology

type global = View.t Pid.Map.t

let initial assoc =
  List.fold_left
    (fun m (q, v) -> Pid.Map.add q (View.init v) m)
    Pid.Map.empty assoc

let alive g = Pid.Map.fold (fun q _ acc -> Pid.Set.add q acc) g Pid.Set.empty

let apply_async g (sched : Round_schedule.async) =
  Pid.Map.mapi
    (fun q prev ->
      let heard_set = Pid.Map.find q sched in
      let heard =
        Pid.Set.elements heard_set |> List.map (fun r -> (r, Pid.Map.find r g))
      in
      View.round ~prev ~heard)
    g

let apply_sync g (sched : Round_schedule.sync) =
  let survivors = Pid.Set.diff (alive g) sched.failed in
  Pid.Set.fold
    (fun q acc ->
      let prev = Pid.Map.find q g in
      let heard_set =
        Pid.Set.union survivors (Pid.Map.find q sched.heard_faulty)
      in
      let heard =
        Pid.Set.elements heard_set |> List.map (fun r -> (r, Pid.Map.find r g))
      in
      Pid.Map.add q (View.round ~prev ~heard) acc)
    survivors Pid.Map.empty

let apply_semi ~p ~n g (sched : Round_schedule.semi) =
  ignore n;
  let survivors = Pid.Set.diff (alive g) sched.pat.Failure.failed in
  Pid.Set.fold
    (fun q acc ->
      let prev = Pid.Map.find q g in
      let vec = Pid.Map.find q sched.choice in
      let heard =
        Array.to_list (Array.mapi (fun r mu -> (r, mu)) vec)
        |> List.filter_map (fun (r, mu) ->
               if mu >= 1 then Some (r, mu, Pid.Map.find r g) else None)
      in
      Pid.Map.add q (View.timed_round ~p ~prev ~heard) acc)
    survivors Pid.Map.empty

let rec run_async ~n ~f ~rounds g =
  if rounds <= 0 then [ g ]
  else
    Round_schedule.async_schedules ~n ~f ~alive:(alive g)
    |> List.concat_map (fun sched ->
           run_async ~n ~f ~rounds:(rounds - 1) (apply_async g sched))

let rec run_sync ~k ~rounds g =
  if rounds <= 0 then [ g ]
  else
    Round_schedule.sync_schedules ~k ~alive:(alive g)
    |> List.concat_map (fun sched ->
           run_sync ~k ~rounds:(rounds - 1) (apply_sync g sched))

let rec run_semi ~k ~p ~n ~rounds g =
  if rounds <= 0 then [ g ]
  else
    Round_schedule.semi_schedules ~k ~p ~n ~alive:(alive g)
    |> List.concat_map (fun sched ->
           run_semi ~k ~p ~n ~rounds:(rounds - 1) (apply_semi ~p ~n g sched))
