(** Length-prefixed framing for JSONL requests over sockets.

    A frame is a 4-byte big-endian payload length followed by the payload
    (one JSON document, by convention — the framing itself is
    byte-transparent, so payloads may contain newlines or NULs).  The
    length guards both directions: {!encode} refuses to build an
    oversized frame and a {!reader} refuses to buffer one, so a
    misbehaving or garbage-speaking peer costs at most {!max_frame}
    bytes of memory, never an unbounded allocation.

    The {!reader} is incremental: {!feed} it whatever byte run [read]
    returned — a torn header, half a payload, three frames and a
    fragment — and {!next} yields each completed payload in order.
    Nothing about a partial read is an error; only an oversized length
    header is. *)

val max_frame : int
(** 16 MiB: the one frame bound, for every encoder and reader. *)

exception Oversized of int
(** The advertised (or to-be-encoded) payload length, which exceeded
    {!max_frame} or had the sign bit set.  A reader that raised this has
    desynced from the byte stream and must be discarded along with its
    connection. *)

val encode : string -> string
(** The wire bytes of one frame.  @raise Oversized *)

val encode_into : Buffer.t -> string -> unit
(** {!encode} appended to a buffer without the intermediate string —
    for batching many frames into one write.  @raise Oversized *)

val header_size : int
(** 4. *)

type reader

val reader : unit -> reader

val feed : reader -> bytes -> int -> int -> unit
(** [feed r buf off len] appends bytes and decodes any frames they
    complete onto the internal queue.  @raise Oversized (the reader is
    then poisoned: subsequent feeds re-raise). *)

val feed_string : reader -> string -> unit

val next : reader -> string option
(** Pop the oldest completed payload. *)

val pending : reader -> int
(** Bytes buffered towards an incomplete frame (0 at a frame boundary) —
    nonzero at connection EOF means the peer died mid-frame. *)
