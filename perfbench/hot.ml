(* The hot_binary generator: open loop over raw wire-v2 binary
   connections.

   One thread fires every arrival of a precomputed Poisson schedule at
   its intended time, whatever the server is doing, and multiplexes the
   replies of all connections, matching them to requests by id.  It
   blocks in select only until shortly before the next arrival and polls
   from there, so it fires within microseconds of the schedule: a timer
   wake-up is tens of microseconds late, about the server's whole
   answer time.  Latency runs from the intended send time to the reply,
   so a stall is charged to every request it delays; how late the
   generator itself fired is recorded separately as the validity guard
   [late]. *)

open Perfbench
module Codec = Psph_net.Codec
module Frame = Psph_net.Frame
module Jsonl = Psph_obs.Jsonl
module Obs = Psph_obs.Obs

type conn = { fd : Unix.file_descr; reader : Frame.reader; buf : bytes }

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let send c payload =
  let f = Frame.encode payload in
  write_all c.fd f 0 (String.length f)

(* blocking read of the next frame *)
let rec recv c =
  match Frame.next c.reader with
  | Some p -> p
  | None ->
      let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
      if n = 0 then failwith "connection closed";
      Frame.feed c.reader c.buf 0 n;
      recv c

let connect addr =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, addr.Psph_net.Addr.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let c = { fd; reader = Frame.reader (); buf = Bytes.create 65536 } in
  send c {|{"op":"hello","version":2,"codec":"binary","pipeline":true}|};
  (match Jsonl.of_string_opt (recv c) with
  | Some o when Option.bind (Jsonl.member "codec" o) Jsonl.to_string_opt
                = Some "binary" -> ()
  | _ -> failwith "server refused the binary codec");
  c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let template (it : Tables.item) =
  Codec.encode_request { Codec.id = 0; want = it.want; query = it.query }

(* every key once, one at a time on one connection: the cache warm-up
   of setup.  Sequential, so the warm-up is never the first concurrent
   traffic a fresh server sees (perfbench/README.md, "Set-up").  Returns
   the replies in key order. *)
let warm c templates =
  Array.mapi
    (fun i t ->
      send c (Codec.request_with_id t (i + 1));
      match Codec.decode_reply (recv c) with
      | Ok (Codec.Result { id; _ } as r) | Ok (Codec.Failed { id; _ } as r) ->
          if id = i + 1 then Some r else None
      | Error m -> failwith ("undecodable warm reply: " ^ m))
    templates

type window = {
  outcome : Outcome.t;
  latency : float array;  (** seconds, per request; nan unless ok *)
  late : float array;  (** seconds the sender fired after its schedule *)
  replies : Codec.reply option array;
  reply_bytes : int;  (** frame bytes received, headers included *)
}

let id_base = 0x100000

(* how long unanswered requests may still come back after the last send *)
let grace = 2.0

(* how long before an arrival the loop stops blocking and polls *)
let spin = 300e-6

(* run [sched] over [conns]; [traced] wraps sends and reply handling in
   spans of the Obs memory sink *)
let run ?(traced = false) conns templates (sched : Tables.arrival array) =
  let n = Array.length sched in
  let conns = Array.of_list conns in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let intended = Array.make n 0. in
  let late = Array.make n 0. in
  let latency = Array.make n nan in
  let replies = Array.make n None in
  let outcome = Outcome.create () in
  let reply_bytes = ref 0 in
  let protocol = ref 0 in
  let lost_conn = Array.make (Array.length conns) false in
  let t0 = Obs.monotonic () +. 0.005 in
  Array.iteri (fun i a -> intended.(i) <- t0 +. a.Tables.at) sched;
  let span name f = if traced then Obs.with_span name (fun _ -> f ()) else f () in
  let next = ref 0 in
  (* send every arrival that is due *)
  let rec fire () =
    if !next < n then begin
      let i = !next in
      let now = Obs.monotonic () in
      if intended.(i) <= now then begin
        let a = sched.(i) in
        span "load.send" (fun () ->
            if not lost_conn.(a.conn) then begin
              let payload = Codec.request_with_id templates.(a.key) (id_base + i) in
              late.(i) <- now -. intended.(i);
              try send conns.(a.conn) payload
              with Unix.Unix_error _ -> lost_conn.(a.conn) <- true
            end);
        incr next;
        fire ()
      end
    end
  in
  let received = ref 0 in
  let rec drain c now =
    match Frame.next c.reader with
    | None -> ()
    | Some p ->
        reply_bytes := !reply_bytes + String.length p + Frame.header_size;
        span "load.reply" (fun () ->
            match Codec.decode_reply p with
            | Ok r ->
                let id = match r with Codec.Result { id; _ } | Codec.Failed { id; _ } -> id in
                let i = id - id_base in
                if i >= 0 && i < n && replies.(i) = None then begin
                  replies.(i) <- Some r;
                  latency.(i) <- now -. intended.(i);
                  incr received
                end
                else incr protocol
            | Error _ -> incr protocol);
        drain c now
  in
  let receive ready now =
    Array.iteri
      (fun ci c ->
        if List.mem c.fd ready then
          match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
          | 0 -> lost_conn.(ci) <- true
          | k ->
              Frame.feed c.reader c.buf 0 k;
              drain c now
          | exception Unix.Unix_error _ -> lost_conn.(ci) <- true)
      conns
  in
  let deadline = ref infinity in
  while !received < n && Obs.monotonic () < !deadline do
    fire ();
    let timeout =
      if !next < n then Float.max 0. (intended.(!next) -. Obs.monotonic () -. spin)
      else begin
        if !deadline = infinity then deadline := Obs.monotonic () +. grace;
        0.05
      end
    in
    match Unix.select fds [] [] timeout with
    | ready, _, _ -> if ready <> [] then receive ready (Obs.monotonic ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  outcome.sent <- n;
  (* an undecodable reply leaves its request unanswered: charge the
     unanswered requests to protocol errors first *)
  let undecoded = ref !protocol in
  Array.iteri
    (fun i r ->
      match r with
      | Some (Codec.Result _) -> outcome.ok <- outcome.ok + 1
      | Some (Codec.Failed _) ->
          outcome.server_error <- outcome.server_error + 1;
          latency.(i) <- nan
      | None ->
          if !undecoded > 0 then begin
            decr undecoded;
            outcome.protocol <- outcome.protocol + 1
          end
          else if lost_conn.(sched.(i).conn) then
            outcome.connection <- outcome.connection + 1
          else outcome.timeout <- outcome.timeout + 1)
    replies;
  {
    outcome;
    latency;
    late;
    replies;
    reply_bytes = !reply_bytes;
  }
