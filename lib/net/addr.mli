(** "HOST:PORT" endpoint addresses for the TCP transport.

    The one address syntax shared by [psc serve --listen], [psc query
    --connect] and [psc route --backend]: a host (dotted quad or name)
    and a decimal port, separated by the last [':'].  Resolution happens
    at connect/bind time, so an address can be parsed and carried around
    without the resolver. *)

type t = { host : string; port : int }

val parse : string -> (t, string) result
(** Split and validate "HOST:PORT" (port in 0..65535; 0 means "let the
    kernel pick" and is only meaningful for listening). *)

val to_string : t -> string

val resolve : t -> (Unix.sockaddr, string) result
(** [inet_addr_of_string] first, then [gethostbyname]. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE for the whole process (idempotent).  Every socket
    user ({!Server.listen}, {!Client.create}, the chaos proxy) calls it
    first: a write to a peer that hung up must fail with [EPIPE], which
    the writer handles, not deliver SIGPIPE, whose default action kills
    the process. *)
