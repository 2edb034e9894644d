(** The compact binary codec for the hot query ops (wire protocol v2).

    JSON-lines is the serve protocol's lingua franca, but parsing and
    printing a JSON envelope dominates the cost of a cache-hit query once
    the transport pipelines.  This codec gives [betti]/[connectivity]/
    [psph]/[model-complex] requests and their responses a fixed binary
    layout inside the existing {!Frame}s — negotiated per connection at
    the hello handshake (see docs/NET.md "Wire protocol v2"), never
    assumed.

    Every payload starts with a one-byte tag and a transport id.  Tag
    [0x00] is the JSON escape hatch: after the id, the rest of the
    payload is a plain JSON-lines document, so ops without a binary layout ([batch], [stats],
    [models], ...), and hot ops naming a solver mode the layout cannot
    carry, flow over a binary connection unchanged.  Integers are
    big-endian; ids are unsigned 32-bit, chosen by the client and
    echoed by the server in both directions ({!Client.pipeline} keys
    its in-flight window on them, escapes included).

    {v
    both      0x00 json    id:u32 json-line
    request   0x01 psph    id:u32 want:u8 n:u16 values:u16
              0x02 facets  id:u32 want:u8 count:u16 (len:u16 bytes)*count
              0x03 model   id:u32 want:u8 nlen:u8 name n:u16 f:u16 k:u16 p:u16 r:u16
              0x04 model+  id:u32 want:u8 nlen:u8 name n:u16 f:u16 k:u16 p:u16 r:u16
                           extcount:u8 (klen:u8 key value:u16)*extcount
    response  0x80 result  id:u32 flags:u8 klen:u8 key [conn:i32]
                           [count:u16 betti:u32*] [solver]
              0x81 error   id:u32 mlen:u16 message
    v}

    Tag [0x04] is the model layout plus a flagged extension block carrying
    a spec's model-owned parameters (Byzantine budget [t], adversary
    class, ...).  Encoders emit it only when the payload is non-empty —
    extension-free specs still encode as [0x03], byte-identical to
    protocol v2 before extensions existed.

    [want] is 0 = both, 1 = betti only, 2 = connectivity only; facet
    entries are {!Psph_topology.Complex_io} simplex strings; response
    [flags] has bit 0 = cached, bit 1 = betti present, bit 2 =
    connectivity present, bit 3 = solver provenance present.  The
    [solver] block is [tier:u8] (0 cached, 1 symbolic, 2 numeric) then a
    presence byte (bit 0 rule, bit 1 steps, bit 3 checked) then the
    present fields in that order: rule as [len:u16 + bytes], steps as
    u32, checked as i32 (a connectivity bound, so it can be negative).
    Any other presence bit (bit 2 once flagged the dropped
    [cells_removed] count) makes the reply undecodable.  Decoders never raise:
    corrupt or truncated payloads come back as [Error _], and {!handle}
    answers them with a well-formed binary error response. *)

open Psph_obs

(** The hot-op model is {!Psph_engine.Serve}'s, re-exported here so
    byte-level code reads [Codec.Both], [Codec.Result], ... *)

type want = Psph_engine.Serve.want = Both | Betti | Connectivity

type query = Psph_engine.Serve.query =
  | Psph of { n : int; values : int }
  | Facets of string list  (** {!Psph_topology.Complex_io} simplex strings *)
  | Model of { model : string; spec : Pseudosphere.Model_complex.spec }

type request = { id : int; want : want; query : query }

type reply = Psph_engine.Serve.reply =
  | Result of {
      id : int;
      key : string;  (** canonical content key, lowercase hex *)
      cached : bool;
      betti : int array option;
      connectivity : int option;
      solver : Psph_engine.Engine.provenance option;
    }
  | Failed of { id : int; message : string }

val max_id : int
(** Largest encodable request id ([2{^32} - 1]). *)

val encode_request : request -> string
(** @raise Invalid_argument when a field exceeds its wire range (psph
    parameters and model parameters are u16, model names 255 bytes,
    facet strings 65535 bytes, ids u32).  A client sends a query that
    does not fit as its JSON line instead. *)

val decode_request : string -> (request, string) result

val request_with_id : string -> int -> string
(** [request_with_id payload id] is [payload] (an {!encode_request}
    result) re-addressed to [id] — a copy plus four byte stores, so a
    pipelining client can stamp fresh transport ids onto a pre-encoded
    request template without re-encoding.  Payloads too short to carry
    an id (never produced by {!encode_request}) come back unchanged. *)

val encode_reply : reply -> string

val decode_reply : string -> (reply, string) result

val escape_json : id:int -> string -> string
(** Wrap a JSON-lines document in the [0x00] escape under transport id
    [id].  @raise Invalid_argument when [id] is not a u32. *)

val unescape_json : string -> (int * string) option
(** The transport id and JSON document of an escape payload; [None] for
    any other tag, and for a [0x00] payload too short to hold an id. *)

val request_id_of_payload : string -> int
(** Best-effort id of a possibly-corrupt payload under any tag (0 when
    even the id bytes are missing) — lets the server address an error
    reply for a request it could not decode. *)

val json_line_of_query : ?id:Jsonl.t -> want -> query -> string
(** {!Psph_engine.Serve.json_line_of_query}. *)

val reply_of_json : string -> reply option
(** {!Psph_engine.Serve.reply_of_json}. *)

val json_of_reply : id:Jsonl.t option -> reply -> string
(** {!Psph_engine.Serve.json_of_reply}: the serve response line of a
    reply, so a binary round trip prints the bytes
    {!Psph_engine.Serve.handle_line} answers. *)

val handle :
  json:(string -> string) -> Psph_engine.Engine.t -> string -> string
(** The binary server handler: decode, {!Psph_engine.Serve.answer},
    encode under the request's id.
    Escape-tagged payloads go through [json] (in production
    {!Psph_engine.Serve.handle_line}) and come back escape-tagged under
    the same id.  Never raises; corrupt input (a [0x00] frame too short
    for an id included) is answered with a binary error reply. *)

val of_json_handler : (string -> string) -> string -> string
(** The binary handler derived from a line handler alone — what
    {!Server.listen} installs when it is given no [bin_handler].
    Escape-tagged payloads go through the line handler as in {!handle};
    a hot request is sent to it as its {!json_line_of_query} line and
    the answer parsed back with {!reply_of_json}, re-addressed to the
    request id.  Fields a {!reply} cannot carry (a router's
    ["retry_after_ms"]) are dropped; the answer bytes a client rebuilds
    with {!json_of_reply} are otherwise those of the line handler.
    Undecodable requests get a binary error reply. *)
