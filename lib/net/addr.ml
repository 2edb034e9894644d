type t = { host : string; port : int }

let parse s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "address %S is not HOST:PORT" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let port_s = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port_s with
      | Some port when host <> "" && port >= 0 && port <= 0xffff ->
          Ok { host; port }
      | _ -> Error (Printf.sprintf "address %S is not HOST:PORT" s))

let to_string { host; port } = Printf.sprintf "%s:%d" host port

let resolve { host; port } =
  match Unix.inet_addr_of_string host with
  | ip -> Ok (Unix.ADDR_INET (ip, port))
  | exception _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          Error (Printf.sprintf "cannot resolve host %S" host)
      | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), port))
      | exception e ->
          Error
            (Printf.sprintf "cannot resolve host %S: %s" host
               (Printexc.to_string e)))

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ()
