(* Span trees recorded in the Obs memory sink, and their self times.

   A span's self time is its duration minus the part of its interval
   covered by its children.  Children may overlap (parallel work), so
   coverage is the measure of the union of their intervals, each clipped
   to the parent's. *)

open Psph_obs

type span = {
  name : string;
  id : int;
  parent : int option;
  start : float;
  stop : float;
}

let of_records records =
  List.filter_map
    (function
      | Obs.Span_record { name; id; parent; start; stop; _ } ->
          Some { name; id; parent; start; stop }
      | Obs.Event_record _ -> None)
    records

let duration s = s.stop -. s.start

(* measure of the union of [intervals] clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let children spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace tbl p (s :: (try Hashtbl.find tbl p with Not_found -> []))
      | None -> ())
    spans;
  fun id -> try Hashtbl.find tbl id with Not_found -> []

let self_time spans =
  let kids = children spans in
  fun s ->
    duration s
    -. covered ~lo:s.start ~hi:s.stop
         (List.map (fun c -> (c.start, c.stop)) (kids s.id))

(* per-name totals: (name, count, total duration, total self time),
   sorted by name *)
let totals spans =
  let self = self_time spans in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, d, st = try Hashtbl.find tbl s.name with Not_found -> (0, 0., 0.) in
      Hashtbl.replace tbl s.name (n + 1, d +. duration s, st +. self s))
    spans;
  List.sort compare
    (Hashtbl.fold (fun name (n, d, st) acc -> (name, n, d, st) :: acc) tbl [])
