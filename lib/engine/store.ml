(* On-disk persistence for the memo store, in the spirit of [Complex_io]:
   a plain line-oriented text format, one cached answer per line,

     <32-hex key> <connectivity> <betti CSV, or "-" when empty>

   e.g. "00ab..ff 0 1,0,1".  Loading is tolerant: malformed lines are
   skipped, so a truncated file (crash mid-flush) costs cache warmth, not
   correctness — content addressing guarantees a stale or corrupt entry
   can only be dropped, never mismatched.

   Persistence latency and load outcomes are reported through {!Obs}:
   [store.save_s] (write latency histogram, inside a [store.save] span),
   [store.load_s], and the [store.loaded] / [store.skipped] counters. *)

open Psph_obs

type entry = { betti : int array; connectivity : int }

(* eager handles: a lazy one forced from two domains at once raises
   [CamlinternalLazy.Undefined] *)
let save_s = Obs.histogram "store.save_s"

let load_s = Obs.histogram "store.load_s"

let loaded_lines = Obs.counter "store.loaded"

let skipped_lines = Obs.counter "store.skipped"

let entry_to_line key e =
  Printf.sprintf "%s %d %s" (Key.to_hex key) e.connectivity
    (if Array.length e.betti = 0 then "-"
     else String.concat "," (Array.to_list (Array.map string_of_int e.betti)))

let entry_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ hex; conn; betti ] -> (
      match (Key.of_hex_opt hex, int_of_string_opt conn) with
      | Some key, Some connectivity -> (
          if betti = "-" then Some (key, { betti = [||]; connectivity })
          else
            let parts = String.split_on_char ',' betti in
            let ints = List.filter_map int_of_string_opt parts in
            if List.length ints = List.length parts then
              Some (key, { betti = Array.of_list ints; connectivity })
            else None)
      | _ -> None)
  | _ -> None

let save path entries =
  Obs.with_span "store.save"
    ~attrs:[ ("entries", Jsonl.int (List.length entries)) ]
    (fun _ ->
      Obs.time save_s (fun () ->
          let tmp = path ^ ".tmp" in
          let oc = open_out tmp in
          List.iter
            (fun (key, e) ->
              output_string oc (entry_to_line key e);
              output_char oc '\n')
            entries;
          close_out oc;
          Sys.rename tmp path))

let load path =
  if not (Sys.file_exists path) then []
  else
    Obs.time load_s (fun () ->
        let ic = open_in path in
        let rec loop acc =
          match input_line ic with
          | line ->
              loop
                (match entry_of_line line with
                | Some e ->
                    Obs.incr loaded_lines;
                    e :: acc
                | None ->
                    Obs.incr skipped_lines;
                    acc)
          | exception End_of_file -> List.rev acc
        in
        let entries = loop [] in
        close_in ic;
        entries)
