(* The outcome taxonomy of one workload window.  Every request sent ends
   in exactly one bucket; [balanced] is the no-silent-loss check and
   [failed] counts every non-ok outcome against the attempts. *)

type t = {
  mutable sent : int;
  mutable ok : int;
  mutable server_error : int;  (** a well-formed error answer *)
  mutable timeout : int;
  mutable connection : int;
  mutable protocol : int;  (** an undecodable or unmatched reply *)
}

let create () =
  { sent = 0; ok = 0; server_error = 0; timeout = 0; connection = 0; protocol = 0 }

let completed t = t.ok + t.server_error + t.timeout + t.connection + t.protocol

let balanced t = t.sent = completed t

let failed t = t.sent - t.ok

let add a b =
  {
    sent = a.sent + b.sent;
    ok = a.ok + b.ok;
    server_error = a.server_error + b.server_error;
    timeout = a.timeout + b.timeout;
    connection = a.connection + b.connection;
    protocol = a.protocol + b.protocol;
  }

let to_string t =
  Printf.sprintf
    "sent=%d ok=%d server_error=%d timeout=%d connection=%d protocol=%d"
    t.sent t.ok t.server_error t.timeout t.connection t.protocol
