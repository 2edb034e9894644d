(* Binary codec for the hot query ops.  Layouts are documented in the
   mli and docs/NET.md; everything here is straight byte shuffling with
   the one design rule that decoders never raise — a peer speaking
   garbage gets a decode error (and, via [handle], a well-formed binary
   error reply), not an exception through the event loop. *)

open Psph_obs

type want = Both | Betti | Connectivity

type query =
  | Psph of { n : int; values : int }
  | Facets of string list
  | Model of { model : string; spec : Pseudosphere.Model_complex.spec }

type request = { id : int; want : want; query : query }

type reply =
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
let sp_cells = 4
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
      | Some { Psph_engine.Engine.tier; rule; steps; cells_removed; checked } ->
          u8 b (tier_code tier);
          let present =
            (match rule with Some _ -> sp_rule | None -> 0)
            lor (match steps with Some _ -> sp_steps | None -> 0)
            lor (match cells_removed with Some _ -> sp_cells | None -> 0)
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
          (match cells_removed with
          | Some v ->
              range "solver cells_removed" v max_id;
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
                let cells_removed =
                  if present land sp_cells <> 0 then
                    Some (r32 c "solver cells_removed")
                  else None
                in
                let checked =
                  if present land sp_checked <> 0 then begin
                    let raw = r32 c "solver checked" in
                    Some (if raw land 0x80000000 <> 0 then raw - 0x100000000 else raw)
                  end
                  else None
                in
                Some { Psph_engine.Engine.tier; rule; steps; cells_removed; checked }
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

let escape_json line =
  let b = Buffer.create (String.length line + 1) in
  Buffer.add_char b tag_json;
  Buffer.add_string b line;
  Buffer.contents b

let unescape_json payload =
  if payload <> "" && payload.[0] = tag_json then
    Some (String.sub payload 1 (String.length payload - 1))
  else None

let request_id_of_payload payload =
  if String.length payload >= 5 && payload.[0] <> tag_json then
    let c = { s = payload; pos = 1 } in
    try r32 c "id" with Short _ -> 0
  else 0

(* ------------------------------------------------------------------ *)
(* JSON translation                                                    *)
(* ------------------------------------------------------------------ *)

let int_member req name = Option.bind (Jsonl.member name req) Jsonl.to_int_opt

let fits16 v = v >= 0 && v <= 0xffff

let query_of_json req =
  match Option.bind (Jsonl.member "op" req) Jsonl.to_string_opt with
  | Some "psph" -> (
      match (int_member req "n", int_member req "values") with
      | Some n, Some values when fits16 n && fits16 values ->
          Some (Both, Psph { n; values })
      | _ -> None)
  | Some (("betti" | "connectivity") as op) -> (
      match Option.bind (Jsonl.member "facets" req) Jsonl.to_list_opt with
      | Some entries when List.length entries <= 0xffff -> (
          let strs = List.filter_map Jsonl.to_string_opt entries in
          if
            List.length strs = List.length entries
            && List.for_all (fun s -> String.length s <= 0xffff) strs
          then
            Some ((if op = "betti" then Betti else Connectivity), Facets strs)
          else None)
      | _ -> None)
  | Some "model-complex" -> (
      match
        (Option.bind (Jsonl.member "model" req) Jsonl.to_string_opt,
         int_member req "n")
      with
      | Some model, Some n when String.length model <= 0xff && fits16 n -> (
          let d = Pseudosphere.Model_complex.default_spec in
          let field name dflt =
            match Jsonl.member name req with
            | None -> Some dflt
            | Some v -> (
                match Jsonl.to_int_opt v with
                | Some i when fits16 i -> Some i
                | _ -> None)
          in
          (* extension fields by the model's own declaration: ints pack
             directly, enum-name strings go through the declared parser.
             Anything that doesn't fit u16 (or an unregistered model with
             leftover odd fields) keeps exact JSON semantics by falling
             back to the escape hatch. *)
          let ext_fields =
            match Pseudosphere.Model_complex.find model with
            | None -> Some []
            | Some m ->
                List.fold_left
                  (fun acc ep ->
                    match acc with
                    | None -> None
                    | Some entries -> (
                        let name = ep.Pseudosphere.Model_complex.ep_name in
                        match Jsonl.member name req with
                        | None -> Some entries
                        | Some v -> (
                            match Jsonl.to_int_opt v with
                            | Some i when fits16 i -> Some ((name, i) :: entries)
                            | Some _ -> None
                            | None -> (
                                match Jsonl.to_string_opt v with
                                | None -> None
                                | Some s -> (
                                    match ep.ep_parse s with
                                    | Ok i when fits16 i ->
                                        Some ((name, i) :: entries)
                                    | _ -> None)))))
                  (Some [])
                  (Pseudosphere.Model_complex.ext_params_of m)
                |> Option.map List.rev
          in
          match
            ( field "f" d.Pseudosphere.Model_complex.f,
              field "k" d.k,
              field "p" d.p,
              field "r" d.r,
              ext_fields )
          with
          | Some f, Some k, Some p, Some r, Some ext ->
              Some (Both, Model { model; spec = { n; f; k; p; r; ext } })
          | _ -> None)
      | _ -> None)
  | _ -> None

(* the JSON request a binary query corresponds to — the client's form on
   a v1 connection, and the line [of_json_handler] asks.  Covers the image of
   [query_of_json] exactly; the combinations that image never produces
   ([Betti]/[Connectivity] over [Psph]/[Model], [Both] over [Facets]) map
   to the nearest op, which answers a superset/subset of the fields. *)
let json_line_of_query ?id want query =
  let idf = match id with Some v -> [ ("id", v) ] | None -> [] in
  let fields =
    match query with
    | Psph { n; values } ->
        [ ("op", Jsonl.Str "psph"); ("n", Jsonl.int n); ("values", Jsonl.int values) ]
    | Facets facets ->
        let op = match want with Connectivity -> "connectivity" | _ -> "betti" in
        [ ("op", Jsonl.Str op);
          ("facets", Jsonl.Arr (List.map (fun f -> Jsonl.Str f) facets)) ]
    | Model { model; spec = { Pseudosphere.Model_complex.n; f; k; p; r; ext } } ->
        [ ("op", Jsonl.Str "model-complex"); ("model", Jsonl.Str model);
          ("n", Jsonl.int n); ("f", Jsonl.int f); ("k", Jsonl.int k);
          ("p", Jsonl.int p); ("r", Jsonl.int r) ]
        @ List.map (fun (key, v) -> (key, Jsonl.int v)) ext
  in
  Jsonl.to_string (Jsonl.Obj (idf @ fields))

let reply_of_json line =
  match Jsonl.of_string_opt line with
  | Some (Jsonl.Obj _ as o) -> (
      let id =
        match Option.bind (Jsonl.member "id" o) Jsonl.to_int_opt with
        | Some i when i >= 0 && i <= max_id -> i
        | _ -> 0
      in
      match Jsonl.member "ok" o with
      | Some (Jsonl.Bool true) ->
          let key =
            Option.value ~default:""
              (Option.bind (Jsonl.member "key" o) Jsonl.to_string_opt)
          in
          let betti =
            match Option.bind (Jsonl.member "betti" o) Jsonl.to_list_opt with
            | Some entries ->
                let ints = List.filter_map Jsonl.to_int_opt entries in
                if List.length ints = List.length entries then
                  Some (Array.of_list ints)
                else None
            | None -> None
          in
          let connectivity =
            Option.bind (Jsonl.member "connectivity" o) Jsonl.to_int_opt
          in
          let cached = Jsonl.member "cached" o = Some (Jsonl.Bool true) in
          let solver =
            match Jsonl.member "solver" o with
            | Some (Jsonl.Obj _ as s) -> (
                let str name =
                  Option.bind (Jsonl.member name s) Jsonl.to_string_opt
                in
                let num name =
                  Option.bind (Jsonl.member name s) Jsonl.to_int_opt
                in
                match str "tier" with
                | Some tier_s -> (
                    let tier =
                      match tier_s with
                      | "cached" -> Some Psph_engine.Engine.Cached
                      | "symbolic" -> Some Psph_engine.Engine.Symbolic
                      | "numeric" -> Some Psph_engine.Engine.Numeric
                      | _ -> None
                    in
                    match tier with
                    | Some tier ->
                        Some
                          { Psph_engine.Engine.tier; rule = str "rule";
                            steps = num "steps";
                            cells_removed = num "cells_removed";
                            checked = num "checked" }
                    | None -> None)
                | None -> None)
            | _ -> None
          in
          Some (Result { id; key; cached; betti; connectivity; solver })
      | Some (Jsonl.Bool false) ->
          let message =
            Option.value ~default:"unknown error"
              (Option.bind (Jsonl.member "error" o) Jsonl.to_string_opt)
          in
          Some (Failed { id; message })
      | _ -> None)
  | _ -> None

(* serve-shaped response line: field order matches Serve.result_fields /
   Serve.error_response exactly, so a binary round trip prints the very
   bytes the JSON protocol would have sent *)
let json_of_reply ~id reply =
  let with_id fields =
    match id with Some id -> ("id", id) :: fields | None -> fields
  in
  let obj =
    match reply with
    | Result { key; cached; betti; connectivity; solver; _ } ->
        Jsonl.Obj
          (with_id
             ([ ("ok", Jsonl.Bool true); ("key", Jsonl.Str key) ]
             @ (match betti with
               | Some b -> [ ("betti", Jsonl.int_array b) ]
               | None -> [])
             @ (match connectivity with
               | Some c -> [ ("connectivity", Jsonl.int c) ]
               | None -> [])
             @ [ ("cached", Jsonl.Bool cached) ]
             @
             match solver with
             | Some p ->
                 [ ("solver",
                    Jsonl.Obj (Psph_engine.Engine.provenance_fields p)) ]
             | None -> []))
    | Failed { message; _ } ->
        Jsonl.Obj
          (with_id [ ("ok", Jsonl.Bool false); ("error", Jsonl.Str message) ])
  in
  Jsonl.to_string obj

(* ------------------------------------------------------------------ *)
(* the binary server handler                                           *)
(* ------------------------------------------------------------------ *)

let spec_of_query = function
  | Psph { n; values } -> Psph_engine.Engine.Psph { n; values }
  | Facets strs ->
      let simplexes =
        List.map
          (fun s ->
            try Psph_topology.Complex_io.simplex_of_string s
            with Failure m -> failwith ("bad facet: " ^ m))
          strs
      in
      Psph_engine.Engine.Explicit (Psph_topology.Complex.of_facets simplexes)
  | Model { model; spec } -> (
      match Pseudosphere.Model_complex.find model with
      | Some _ -> Psph_engine.Engine.Model { model; params = spec }
      | None ->
          failwith
            (Printf.sprintf "unknown model %S (available: %s)" model
               (String.concat ", " (Pseudosphere.Model_complex.names ()))))

let handle ~json engine payload =
  match unescape_json payload with
  | Some line -> escape_json (json line)
  | None -> (
      match decode_request payload with
      | Error m ->
          encode_reply
            (Failed { id = request_id_of_payload payload; message = "bad request: " ^ m })
      | Ok { id; want; query } -> (
          match
            let spec = spec_of_query query in
            (* connectivity-only queries go through the tiered solver, so
               a recognized spec can be answered symbolically *)
            match want with
            | Connectivity -> Psph_engine.Engine.eval_conn engine spec
            | Both | Betti -> Psph_engine.Engine.eval engine spec
          with
          | r ->
              encode_reply
                (Result
                   {
                     id;
                     key = Psph_engine.Key.to_hex r.Psph_engine.Engine.key;
                     cached = r.cached;
                     betti =
                       (match want with
                       | Connectivity -> None
                       | Both | Betti -> Some r.answer.betti);
                     connectivity =
                       (match want with
                       | Betti -> None
                       | Both | Connectivity -> Some r.answer.connectivity);
                     solver = Some r.solver;
                   })
          | exception (Invalid_argument m | Failure m) ->
              encode_reply (Failed { id; message = m })
          | exception e ->
              encode_reply
                (Failed { id; message = "internal error: " ^ Printexc.to_string e })))

(* the binary handler of a server that only has a line handler (the
   router front, a test double): a hot request is answered as its JSON
   form and the answer translated back, so every server speaks binary *)
let of_json_handler json payload =
  match unescape_json payload with
  | Some line -> escape_json (json line)
  | None -> (
      match decode_request payload with
      | Error m ->
          encode_reply
            (Failed { id = request_id_of_payload payload; message = "bad request: " ^ m })
      | Ok { id; want; query } ->
          let answer = json (json_line_of_query want query) in
          encode_reply
            (match reply_of_json answer with
            | Some (Result r) -> Result { r with id }
            | Some (Failed f) -> Failed { f with id }
            | None -> Failed { id; message = "unparseable answer: " ^ answer }))
