(* Binary codec for the hot query ops.  Layouts are documented in the
   mli and docs/NET.md; everything here is straight byte shuffling — the
   request/answer model itself is Serve's — with the one design rule
   that decoders never raise — a peer speaking
   garbage gets a decode error (and, via [handle], a well-formed binary
   error reply), not an exception through the event loop. *)

module Serve = Psph_engine.Serve

type want = Serve.want = Both | Betti | Connectivity

type query = Serve.query =
  | Psph of { n : int; values : int }
  | Facets of string list
  | Model of { model : string; spec : Pseudosphere.Model_complex.spec }

type request = { id : int; want : want; query : query }

type reply = Serve.reply =
  | Result of {
      id : int;
      key : string;
      cached : bool;
      betti : int array option;
      connectivity : int option;
      solver : Psph_engine.Engine.provenance option;
    }
  | Failed of { id : int; message : string }

let max_id = 0xFFFFFFFF

(* request tags *)
let tag_json = '\x00'
let tag_psph = '\x01'
let tag_facets = '\x02'
let tag_model = '\x03'

(* a model request whose spec carries a non-empty extension payload; the
   plain [tag_model] layout is still emitted for empty payloads, so
   pre-extension servers keep decoding every request an old client sends *)
let tag_model_ext = '\x04'

(* response tags *)
let tag_result = '\x80'
let tag_error = '\x81'

(* response flag bits *)
let fl_cached = 1
let fl_betti = 2
let fl_conn = 4
let fl_solver = 8

(* solver-block presence bits (second flag byte inside the block) *)
let sp_rule = 1
let sp_steps = 2
let sp_checked = 8

(* ------------------------------------------------------------------ *)
(* byte writers/readers                                                *)
(* ------------------------------------------------------------------ *)

let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let u16 b v =
  u8 b (v lsr 8);
  u8 b v

let u32 b v =
  u16 b (v lsr 16);
  u16 b v

let range name v hi =
  if v < 0 || v > hi then
    invalid_arg (Printf.sprintf "Codec: %s %d out of range [0, %d]" name v hi)

(* a decode cursor; [Short] aborts to the decoder's Error return *)
exception Short of string

type cur = { s : string; mutable pos : int }

let need c n what =
  if c.pos + n > String.length c.s then raise (Short ("truncated " ^ what))

let r8 c what =
  need c 1 what;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r16 c what =
  let hi = r8 c what in
  (hi lsl 8) lor r8 c what

let r32 c what =
  let hi = r16 c what in
  (hi lsl 16) lor r16 c what

let rstr c n what =
  need c n what;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

(* ------------------------------------------------------------------ *)
(* requests                                                            *)
(* ------------------------------------------------------------------ *)

let want_code = function Both -> 0 | Betti -> 1 | Connectivity -> 2

(* every binary request carries its id at bytes 1-4, so re-addressing a
   pre-encoded request is a copy and four byte stores, not a re-encode *)
let request_with_id payload id =
  if String.length payload < 5 then payload
  else begin
    let b = Bytes.of_string payload in
    Bytes.set_int32_be b 1 (Int32.of_int id);
    Bytes.unsafe_to_string b
  end

let want_of_code = function
  | 0 -> Some Both
  | 1 -> Some Betti
  | 2 -> Some Connectivity
  | _ -> None

let encode_request { id; want; query } =
  range "id" id max_id;
  let b = Buffer.create 32 in
  (match query with
  | Psph { n; values } ->
      range "psph n" n 0xffff;
      range "psph values" values 0xffff;
      Buffer.add_char b tag_psph;
      u32 b id;
      u8 b (want_code want);
      u16 b n;
      u16 b values
  | Facets facets ->
      range "facet count" (List.length facets) 0xffff;
      Buffer.add_char b tag_facets;
      u32 b id;
      u8 b (want_code want);
      u16 b (List.length facets);
      List.iter
        (fun f ->
          range "facet length" (String.length f) 0xffff;
          u16 b (String.length f);
          Buffer.add_string b f)
        facets
  | Model { model; spec } ->
      range "model name length" (String.length model) 0xff;
      let { Pseudosphere.Model_complex.n; f; k; p; r; ext } = spec in
      List.iter
        (fun (name, v) -> range name v 0xffff)
        [ ("model n", n); ("model f", f); ("model k", k); ("model p", p); ("model r", r) ];
      range "ext count" (List.length ext) 0xff;
      List.iter
        (fun (key, v) ->
          range "ext key length" (String.length key) 0xff;
          range ("ext " ^ key) v 0xffff)
        ext;
      Buffer.add_char b (if ext = [] then tag_model else tag_model_ext);
      u32 b id;
      u8 b (want_code want);
      u8 b (String.length model);
      Buffer.add_string b model;
      u16 b n;
      u16 b f;
      u16 b k;
      u16 b p;
      u16 b r;
      if ext <> [] then begin
        u8 b (List.length ext);
        List.iter
          (fun (key, v) ->
            u8 b (String.length key);
            Buffer.add_string b key;
            u16 b v)
          ext
      end);
  Buffer.contents b

let decode_request payload =
  if payload = "" then Error "empty payload"
  else
    let c = { s = payload; pos = 1 } in
    try
      let head what =
        let id = r32 c "id" in
        match want_of_code (r8 c "want") with
        | Some w -> (id, w)
        | None -> raise (Short ("bad want byte in " ^ what))
      in
      let req =
        match payload.[0] with
        | t when t = tag_psph ->
            let id, want = head "psph" in
            let n = r16 c "psph n" in
            let values = r16 c "psph values" in
            { id; want; query = Psph { n; values } }
        | t when t = tag_facets ->
            let id, want = head "facets" in
            let count = r16 c "facet count" in
            (* explicit loop: the reads must happen in wire order *)
            let facets = ref [] in
            for _ = 1 to count do
              let len = r16 c "facet length" in
              facets := rstr c len "facet" :: !facets
            done;
            { id; want; query = Facets (List.rev !facets) }
        | t when t = tag_model || t = tag_model_ext ->
            let id, want = head "model" in
            let nlen = r8 c "model name length" in
            let model = rstr c nlen "model name" in
            let n = r16 c "model n" in
            let f = r16 c "model f" in
            let k = r16 c "model k" in
            let p = r16 c "model p" in
            let r = r16 c "model r" in
            let ext =
              if t = tag_model then []
              else begin
                let count = r8 c "ext count" in
                let entries = ref [] in
                for _ = 1 to count do
                  let klen = r8 c "ext key length" in
                  let key = rstr c klen "ext key" in
                  entries := (key, r16 c "ext value") :: !entries
                done;
                List.rev !entries
              end
            in
            { id; want; query = Model { model; spec = { n; f; k; p; r; ext } } }
        | t -> raise (Short (Printf.sprintf "unknown request tag 0x%02x" (Char.code t)))
      in
      if c.pos <> String.length payload then Error "trailing bytes after request"
      else Ok req
    with Short m -> Error m

(* ------------------------------------------------------------------ *)
(* replies                                                             *)
(* ------------------------------------------------------------------ *)

let tier_code = function
  | Psph_engine.Engine.Cached -> 0
  | Psph_engine.Engine.Symbolic -> 1
  | Psph_engine.Engine.Numeric -> 2

let tier_of_code = function
  | 0 -> Some Psph_engine.Engine.Cached
  | 1 -> Some Psph_engine.Engine.Symbolic
  | 2 -> Some Psph_engine.Engine.Numeric
  | _ -> None

let encode_reply = function
  | Result { id; key; cached; betti; connectivity; solver } ->
      range "id" id max_id;
      range "key length" (String.length key) 0xff;
      let b = Buffer.create 64 in
      Buffer.add_char b tag_result;
      u32 b id;
      let flags =
        (if cached then fl_cached else 0)
        lor (match betti with Some _ -> fl_betti | None -> 0)
        lor (match connectivity with Some _ -> fl_conn | None -> 0)
        lor (match solver with Some _ -> fl_solver | None -> 0)
      in
      u8 b flags;
      u8 b (String.length key);
      Buffer.add_string b key;
      (match connectivity with
      | Some conn ->
          (* two's-complement i32: connectivity can be negative (-1, -2) *)
          u32 b (conn land 0xFFFFFFFF)
      | None -> ());
      (match betti with
      | Some betti ->
          range "betti length" (Array.length betti) 0xffff;
          u16 b (Array.length betti);
          Array.iter
            (fun v ->
              range "betti entry" v max_id;
              u32 b v)
            betti
      | None -> ());
      (match solver with
      | Some { Psph_engine.Engine.tier; rule; steps; checked; _ } ->
          u8 b (tier_code tier);
          let present =
            (match rule with Some _ -> sp_rule | None -> 0)
            lor (match steps with Some _ -> sp_steps | None -> 0)
            lor (match checked with Some _ -> sp_checked | None -> 0)
          in
          u8 b present;
          (match rule with
          | Some rule ->
              range "solver rule length" (String.length rule) 0xffff;
              u16 b (String.length rule);
              Buffer.add_string b rule
          | None -> ());
          (match steps with
          | Some v ->
              range "solver steps" v max_id;
              u32 b v
          | None -> ());
          (match checked with
          (* the checked bound is a connectivity, so it shares the
             two's-complement i32 encoding *)
          | Some v -> u32 b (v land 0xFFFFFFFF)
          | None -> ())
      | None -> ());
      Buffer.contents b
  | Failed { id; message } ->
      range "id" id max_id;
      let message =
        if String.length message > 0xffff then String.sub message 0 0xffff
        else message
      in
      let b = Buffer.create 32 in
      Buffer.add_char b tag_error;
      u32 b id;
      u16 b (String.length message);
      Buffer.add_string b message;
      Buffer.contents b

let decode_reply payload =
  if payload = "" then Error "empty payload"
  else
    let c = { s = payload; pos = 1 } in
    try
      let rep =
        match payload.[0] with
        | t when t = tag_result ->
            let id = r32 c "id" in
            let flags = r8 c "flags" in
            let klen = r8 c "key length" in
            let key = rstr c klen "key" in
            let connectivity =
              if flags land fl_conn <> 0 then begin
                let raw = r32 c "connectivity" in
                (* sign-extend from 32 bits *)
                Some (if raw land 0x80000000 <> 0 then raw - 0x100000000 else raw)
              end
              else None
            in
            let betti =
              if flags land fl_betti <> 0 then begin
                let count = r16 c "betti length" in
                let a = Array.make count 0 in
                for i = 0 to count - 1 do
                  a.(i) <- r32 c "betti entry"
                done;
                Some a
              end
              else None
            in
            let solver =
              if flags land fl_solver <> 0 then begin
                let tier =
                  match tier_of_code (r8 c "solver tier") with
                  | Some t -> t
                  | None -> raise (Short "bad solver tier byte")
                in
                let present = r8 c "solver presence flags" in
                if present land lnot (sp_rule lor sp_steps lor sp_checked) <> 0
                then raise (Short "unknown solver presence bits");
                let rule =
                  if present land sp_rule <> 0 then begin
                    let len = r16 c "solver rule length" in
                    Some (rstr c len "solver rule")
                  end
                  else None
                in
                let steps =
                  if present land sp_steps <> 0 then Some (r32 c "solver steps")
                  else None
                in
                let checked =
                  if present land sp_checked <> 0 then begin
                    let raw = r32 c "solver checked" in
                    Some (if raw land 0x80000000 <> 0 then raw - 0x100000000 else raw)
                  end
                  else None
                in
                Some
                  { Psph_engine.Engine.tier; rule; steps; cells_removed = None; checked }
              end
              else None
            in
            Result
              { id; key; cached = flags land fl_cached <> 0; betti; connectivity;
                solver }
        | t when t = tag_error ->
            let id = r32 c "id" in
            let mlen = r16 c "message length" in
            let message = rstr c mlen "message" in
            Failed { id; message }
        | t -> raise (Short (Printf.sprintf "unknown reply tag 0x%02x" (Char.code t)))
      in
      if c.pos <> String.length payload then Error "trailing bytes after reply"
      else Ok rep
    with Short m -> Error m

(* ------------------------------------------------------------------ *)
(* JSON escape hatch                                                   *)
(* ------------------------------------------------------------------ *)

(* [0x00 id:u32 json]: the id sits where every binary payload keeps it *)
let escape_json ~id line =
  range "id" id max_id;
  let b = Buffer.create (String.length line + 5) in
  Buffer.add_char b tag_json;
  u32 b id;
  Buffer.add_string b line;
  Buffer.contents b

let unescape_json payload =
  if String.length payload >= 5 && payload.[0] = tag_json then
    let c = { s = payload; pos = 1 } in
    let id = r32 c "id" in
    Some (id, String.sub payload 5 (String.length payload - 5))
  else None

let request_id_of_payload payload =
  if String.length payload >= 5 then r32 { s = payload; pos = 1 } "id" else 0

(* ------------------------------------------------------------------ *)
(* server handlers                                                     *)
(* ------------------------------------------------------------------ *)

let json_line_of_query = Serve.json_line_of_query
let reply_of_json = Serve.reply_of_json
let json_of_reply = Serve.json_of_reply

(* decode, [answer], encode under the request's id; escape-tagged
   payloads go through the line handler and come back under theirs *)
let binary_handler ~json answer payload =
  match unescape_json payload with
  | Some (id, line) -> escape_json ~id (json line)
  | None -> (
      match decode_request payload with
      | Error m ->
          encode_reply
            (Failed { id = request_id_of_payload payload; message = "bad request: " ^ m })
      | Ok { id; want; query } ->
          encode_reply
            (match answer want query with
            | Result r -> Result { r with id }
            | Failed f -> Failed { f with id }))

let handle ~json engine = binary_handler ~json (Serve.answer engine)

(* the binary handler of a server that only has a line handler (the
   router front, a test double): a hot request is answered as its JSON
   form and the answer translated back, so every server speaks binary *)
let of_json_handler json =
  binary_handler ~json (fun want query ->
      let answer = json (json_line_of_query want query) in
      match reply_of_json answer with
      | Some r -> r
      | None -> Failed { id = 0; message = "unparseable answer: " ^ answer })
