(* The `psc serve` request/response loop: one JSON document per line on
   stdin, one response per line on stdout (JSON Lines).  Request shapes:

     {"op":"betti",         "facets":["0:i0 ; 1:i1", ...], "id":7}
     {"op":"connectivity",  "facets":[...]}
     {"op":"connectivity",  "model":"sync", "n":6, "k":1, "r":1}
     {"op":"connectivity",  "n":2, "values":3}
     {"op":"psph",          "n":2, "values":3}
     {"op":"model-complex", "model":"sync", "n":3, "k":1, "r":2}
     {"op":"batch",         "requests":[ <any of the above> ]}
     {"op":"models"}
     {"op":"stats"}
     {"op":"metrics"}
     {"op":"populate",      "entries":["<hex> <conn> <betti csv>", ...]}

   "model" accepts any name registered in Model_complex (the "models" op
   lists them); an unknown name errors with the available list.

   Connectivity-answering requests additionally accept a "solver" field
   ("auto"|"symbolic"|"numeric"|"check", default auto) selecting the
   solver tier; the model/psph forms of "connectivity" are the ones the
   symbolic tier can answer without realizing the complex.  Every
   successful answer carries a "solver" object (tier + provenance).

   "facets" entries are Complex_io simplex strings.  Numeric model
   parameters default like the psc flags (f=1, k=1, p=2, r=1).  Responses
   echo "id" when present, carry "ok", and on success the canonical "key",
   the requested measurements, "cached", and "solver".  A batch response
   holds "results" in request order; its members are evaluated in order
   in the calling thread.

   The hot-op grammar ([parse]), evaluator ([answer]) and printer
   ([reply_obj]) are the only ones in the tree: the binary codec, the
   client and the router all call them, so JSON and binary answers are
   one value printed once.  [handle_line] never raises: every failure is
   an {"ok":false,...} response echoing the request's "id". *)

open Psph_obs
open Psph_topology

(* a malformed request: the message is the error response's *)
let bad fmt = Printf.ksprintf failwith fmt

let int_field ?default req name =
  match Jsonl.member name req with
  | Some v -> (
      match Jsonl.to_int_opt v with
      | Some i -> i
      | None -> bad "field %S must be an integer" name)
  | None -> (
      match default with
      | Some d -> d
      | None -> bad "missing integer field %S" name)

(* which measurements a request asks for *)
type want = Both | Betti | Connectivity

type query =
  | Psph of { n : int; values : int }
  | Facets of string list
  | Model of { model : string; spec : Pseudosphere.Model_complex.spec }

type reply =
  | Result of {
      id : int;
      key : string;
      cached : bool;
      betti : int array option;
      connectivity : int option;
      solver : Engine.provenance option;
    }
  | Failed of { id : int; message : string }

(* which solver tier the request asks for ("solver" field, default auto) *)
let mode_of_request req =
  match Option.bind (Jsonl.member "solver" req) Jsonl.to_string_opt with
  | None | Some "auto" -> Engine.Auto
  | Some "symbolic" -> Engine.Symbolic_only
  | Some "numeric" -> Engine.Numeric_only
  | Some "check" -> Engine.Check
  | Some s -> bad "unknown solver mode %S (auto|symbolic|numeric|check)" s

let find_model name =
  match Pseudosphere.Model_complex.find name with
  | Some m -> m
  | None ->
      bad "unknown model %S (available: %s)" name
        (String.concat ", " (Pseudosphere.Model_complex.names ()))

(* a model's declared extension parameters, read from the request by
   declared name: integers directly, or strings through the parameter's
   own parser (enum names like "adv":"rooted").  Absent keys are left for
   the model's [normalize] to default. *)
let ext_of req m =
  List.filter_map
    (fun ep ->
      let name = ep.Pseudosphere.Model_complex.ep_name in
      match Jsonl.member name req with
      | None -> None
      | Some v -> (
          match Jsonl.to_int_opt v with
          | Some i -> Some (name, i)
          | None -> (
              match Jsonl.to_string_opt v with
              | None -> bad "field %S must be an integer or string" name
              | Some s -> (
                  match ep.ep_parse s with
                  | Ok i -> Some (name, i)
                  | Error e -> bad "%s" e))))
    (Pseudosphere.Model_complex.ext_params_of m)

let model_query req =
  let model =
    match Option.bind (Jsonl.member "model" req) Jsonl.to_string_opt with
    | None -> bad "missing string field \"model\""
    | Some name -> name
  in
  let m = find_model model in
  let d = Pseudosphere.Model_complex.default_spec in
  Model
    {
      model;
      spec =
        {
          Pseudosphere.Model_complex.n = int_field req "n";
          f = int_field ~default:d.Pseudosphere.Model_complex.f req "f";
          k = int_field ~default:d.k req "k";
          p = int_field ~default:d.p req "p";
          r = int_field ~default:d.r req "r";
          ext = ext_of req m;
        };
    }

let psph_query req = Psph { n = int_field req "n"; values = int_field req "values" }

let parse_exn req =
  let want, query =
    match Option.bind (Jsonl.member "op" req) Jsonl.to_string_opt with
    | None -> bad "missing \"op\""
    | Some (("betti" | "connectivity") as op) -> (
        match Option.bind (Jsonl.member "facets" req) Jsonl.to_list_opt with
        | Some facets ->
            ( (if op = "betti" then Betti else Connectivity),
              Facets
                (List.map
                   (fun f ->
                     match Jsonl.to_string_opt f with
                     | Some s -> s
                     | None -> bad "facets entries must be strings")
                   facets) )
        | None when op = "connectivity" && Jsonl.member "model" req <> None ->
            (* the solver-routed symbolic forms: a registered model ... *)
            (Connectivity, model_query req)
        | None when op = "connectivity" && Jsonl.member "values" req <> None ->
            (* ... or a uniform pseudosphere *)
            (Connectivity, psph_query req)
        | None ->
            if op = "connectivity" then
              bad "connectivity needs \"facets\", \"model\", or \"n\"+\"values\""
            else bad "%s needs a \"facets\" array" op)
    | Some "psph" -> (Both, psph_query req)
    | Some "model-complex" -> (Both, model_query req)
    | Some op -> bad "unknown op %S" op
  in
  (want, query, mode_of_request req)

let parse req = try Ok (parse_exn req) with Failure m -> Error m

let spec_of_query = function
  | Psph { n; values } -> Engine.Psph { n; values }
  | Facets strs ->
      Engine.Explicit
        (Complex.of_facets
           (List.map
              (fun s ->
                try Complex_io.simplex_of_string s
                with Failure m -> bad "bad facet: %s" m)
              strs))
  | Model { model; spec } ->
      ignore (find_model model);
      Engine.Model { model; params = spec }

(* want=Connectivity goes through the tiered solver; Betti needs the
   numeric tier, so those wants only honour mode=check.  Every failure
   becomes a [Failed] reply: one bad query never takes its peers down. *)
let answer ?(mode = Engine.Auto) engine want query =
  match
    let spec = spec_of_query query in
    match want with
    | Connectivity -> Engine.eval_conn ~mode engine spec
    | Betti | Both -> Engine.eval ~mode engine spec
  with
  | r ->
      Result
        {
          id = 0;
          key = Key.to_hex r.key;
          cached = r.cached;
          betti = (if want = Connectivity then None else Some r.answer.betti);
          connectivity = (if want = Betti then None else Some r.answer.connectivity);
          solver = Some r.solver;
        }
  | exception (Invalid_argument m | Failure m) -> Failed { id = 0; message = m }
  | exception e -> Failed { id = 0; message = "internal error: " ^ Printexc.to_string e }

(* ------------------------------------------------------------------ *)
(* the response envelope                                               *)
(* ------------------------------------------------------------------ *)

let echo id fields = match id with Some id -> ("id", id) :: fields | None -> fields

let with_id req fields = echo (Jsonl.member "id" req) fields

let error_obj ?(extra = []) id msg =
  Jsonl.Obj (echo id ([ ("ok", Jsonl.Bool false); ("error", Jsonl.Str msg) ] @ extra))

let error_response ?extra ?req msg =
  error_obj ?extra (Option.bind req (Jsonl.member "id")) msg

let error_line ?orig msg =
  Jsonl.to_string (error_response ?req:(Option.bind orig Jsonl.of_string_opt) msg)

let reply_obj ~id = function
  | Result { key; cached; betti; connectivity; solver; _ } ->
      let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
      Jsonl.Obj
        (echo id
           ([ ("ok", Jsonl.Bool true); ("key", Jsonl.Str key) ]
           @ opt "betti" Jsonl.int_array betti
           @ opt "connectivity" Jsonl.int connectivity
           @ [ ("cached", Jsonl.Bool cached) ]
           @ opt "solver" (fun p -> Jsonl.Obj (Engine.provenance_fields p)) solver))
  | Failed { message; _ } -> error_obj id message

let json_of_reply ~id reply = Jsonl.to_string (reply_obj ~id reply)

let reply_of_json line =
  match Jsonl.of_string_opt line with
  | Some (Jsonl.Obj _ as o) -> (
      let str o name = Option.bind (Jsonl.member name o) Jsonl.to_string_opt in
      let num o name = Option.bind (Jsonl.member name o) Jsonl.to_int_opt in
      let id =
        match num o "id" with Some i when i >= 0 && i <= 0xFFFFFFFF -> i | _ -> 0
      in
      match Jsonl.member "ok" o with
      | Some (Jsonl.Bool true) ->
          let betti =
            Option.bind (Option.bind (Jsonl.member "betti" o) Jsonl.to_list_opt)
              (fun entries ->
                let ints = List.filter_map Jsonl.to_int_opt entries in
                if List.length ints = List.length entries then Some (Array.of_list ints)
                else None)
          in
          (* every answer names the tier that produced it: a reply
             without a known one is damaged, not a different answer *)
          let provenance s =
            let tier =
              match str s "tier" with
              | Some "cached" -> Some Engine.Cached
              | Some "symbolic" -> Some Engine.Symbolic
              | Some "numeric" -> Some Engine.Numeric
              | _ -> None
            in
            Option.map
              (fun tier ->
                { Engine.tier; rule = str s "rule"; steps = num s "steps";
                  cells_removed = None; checked = num s "checked" })
              tier
          in
          Option.map
            (fun solver ->
              Result
                { id; key = Option.value ~default:"" (str o "key");
                  cached = Jsonl.member "cached" o = Some (Jsonl.Bool true);
                  betti; connectivity = num o "connectivity";
                  solver = Some solver })
            (Option.bind (Jsonl.member "solver" o) provenance)
      | Some (Jsonl.Bool false) ->
          Some
            (Failed
               { id; message = Option.value ~default:"unknown error" (str o "error") })
      | _ -> None)
  | _ -> None

(* the JSON request a query denotes.  Covers [parse]'s image exactly;
   the combinations [parse] never produces ([Betti] over [Psph]/[Model],
   [Both] over [Facets]) map to the nearest op, which answers a
   superset/subset of the fields. *)
let json_line_of_query ?id want query =
  let op =
    match (want, query) with
    | Connectivity, _ -> "connectivity"
    | _, Facets _ -> "betti"
    | _, Psph _ -> "psph"
    | _, Model _ -> "model-complex"
  in
  let fields =
    match query with
    | Psph { n; values } -> [ ("n", Jsonl.int n); ("values", Jsonl.int values) ]
    | Facets facets -> [ ("facets", Jsonl.Arr (List.map (fun f -> Jsonl.Str f) facets)) ]
    | Model { model; spec = { Pseudosphere.Model_complex.n; f; k; p; r; ext } } ->
        [ ("model", Jsonl.Str model); ("n", Jsonl.int n); ("f", Jsonl.int f);
          ("k", Jsonl.int k); ("p", Jsonl.int p); ("r", Jsonl.int r) ]
        @ List.map (fun (key, v) -> (key, Jsonl.int v)) ext
  in
  Jsonl.to_string (Jsonl.Obj (echo id (("op", Jsonl.Str op) :: fields)))

(* ------------------------------------------------------------------ *)
(* the other ops                                                       *)
(* ------------------------------------------------------------------ *)

let stats_response engine =
  let s = Engine.stats engine in
  Jsonl.Obj
    [
      ("ok", Jsonl.Bool true);
      ( "stats",
        Jsonl.Obj
          [
            ("hits", Jsonl.int s.Engine.hits);
            ("misses", Jsonl.int s.misses);
            ("evictions", Jsonl.int s.evictions);
            ("cache_len", Jsonl.int s.cache_len);
            ("jobs", Jsonl.int s.jobs);
            ("queries", Jsonl.int s.queries);
            ("domains", Jsonl.int s.domains);
            ("build_s", Jsonl.Num s.build_s);
            ("compute_s", Jsonl.Num s.compute_s);
          ] );
      ("metrics", Obs.snapshot_json ());
    ]

let metrics_response () =
  Jsonl.Obj [ ("ok", Jsonl.Bool true); ("metrics", Obs.snapshot_json ()) ]

(* "models" keeps its original shape (an array of names — the router's
   health probe and old clients parse it); extension declarations ride in
   a separate "params" object so new clients can discover model-owned
   flags without a schema bump *)
let models_response () =
  let ext_fields m =
    List.map
      (fun ep ->
        ( ep.Pseudosphere.Model_complex.ep_name,
          Jsonl.Obj
            [
              ("doc", Jsonl.Str ep.Pseudosphere.Model_complex.ep_doc);
              ("default", Jsonl.int ep.ep_default);
            ] ))
      (Pseudosphere.Model_complex.ext_params_of m)
  in
  Jsonl.Obj
    [
      ("ok", Jsonl.Bool true);
      ( "models",
        Jsonl.Arr
          (List.map
             (fun n -> Jsonl.Str n)
             (Pseudosphere.Model_complex.names ())) );
      ( "params",
        Jsonl.Obj
          (List.filter_map
             (fun name ->
               match Pseudosphere.Model_complex.find name with
               | Some m when Pseudosphere.Model_complex.ext_params_of m <> [] ->
                   Some (name, Jsonl.Obj (ext_fields m))
               | _ -> None)
             (Pseudosphere.Model_complex.names ())) );
    ]

(* the replication tier's wire op (docs/NET.md "Replication"):
   [populate] loads finished answers into the memo cache (content
   addressing makes a stale entry harmless — see Engine.warm). *)
let populate_response engine req =
  match Option.bind (Jsonl.member "entries" req) Jsonl.to_list_opt with
  | None -> bad "populate needs an \"entries\" array"
  | Some lines ->
      let parsed =
        List.filter_map
          (fun l -> Option.bind (Jsonl.to_string_opt l) Store.entry_of_line)
          lines
      in
      let loaded = Engine.warm engine parsed in
      Jsonl.Obj
        (with_id req
           [
             ("ok", Jsonl.Bool true);
             ("loaded", Jsonl.int loaded);
             ("skipped", Jsonl.int (List.length lines - loaded));
           ])

let handle_request engine req =
  match Option.bind (Jsonl.member "op" req) Jsonl.to_string_opt with
  | Some "stats" -> stats_response engine
  | Some "metrics" -> metrics_response ()
  | Some "models" -> models_response ()
  | Some "populate" -> populate_response engine req
  | Some "batch" ->
      let requests =
        match Option.bind (Jsonl.member "requests" req) Jsonl.to_list_opt with
        | Some rs -> rs
        | None -> bad "batch needs a \"requests\" array"
      in
      (* each member is parsed and answered on its own, in order, so one
         bad member fails its slot, not the whole batch.  Evaluation
         errors (invalid parameters, a failed solver check) also fail only
         their slot, rendered exactly as the top-level error would be —
         the router splices batch members verbatim, so a member response
         must be byte-identical to its top-level counterpart. *)
      let member r =
        let reply =
          match parse r with
          | Ok (want, query, mode) -> answer ~mode engine want query
          | Error message -> Failed { id = 0; message }
        in
        reply_obj ~id:(Jsonl.member "id" r) reply
      in
      Jsonl.Obj
        [ ("ok", Jsonl.Bool true); ("results", Jsonl.Arr (List.map member requests)) ]
  | _ ->
      let want, query, mode = parse_exn req in
      reply_obj ~id:(Jsonl.member "id" req) (answer ~mode engine want query)

(* process-wide request counter; attached to every [serve.request] span so
   a trace's requests stay distinguishable even without client "id"s *)
let request_ids = Atomic.make 0

(* eager, like the engine's handles: worker domains serve requests
   concurrently, and a lazy handle forced twice at once raises *)
let requests_c = Obs.counter "serve.requests"

(* the ops with their own [serve.op.<op>] latency histogram: the ones
   [handle_request] answers, plus "invalid" for a line with no op.  Any
   other client-chosen op name shares [serve.op.unknown], so the metric
   registry cannot grow with the names clients send. *)
let known_ops =
  [
    "betti"; "connectivity"; "psph"; "model-complex"; "batch"; "models";
    "stats"; "metrics"; "populate"; "invalid";
  ]

let op_metric op =
  "serve.op." ^ if List.mem op known_ops then op else "unknown"

let handle_line engine line =
  let rid = Atomic.fetch_and_add request_ids 1 in
  Obs.incr requests_c;
  Obs.with_span "serve.request"
    ~attrs:[ ("request", Jsonl.int rid) ]
    (fun sp ->
      let t0 = Obs.monotonic () in
      let op = ref "invalid" in
      let response =
        match Jsonl.of_string line with
        | exception Jsonl.Parse_error m -> error_response ("parse error: " ^ m)
        | exception e ->
            (* e.g. Stack_overflow from pathologically nested input *)
            error_response ("parse error: " ^ Printexc.to_string e)
        | req -> (
            (match Option.bind (Jsonl.member "op" req) Jsonl.to_string_opt with
            | Some o -> op := o
            | None -> ());
            try handle_request engine req with
            | Invalid_argument m | Failure m -> error_response ~req m
            | e ->
                (* a handler bug or resource blow-up must answer this
                   request, not kill the serve loop *)
                error_response ~req ("internal error: " ^ Printexc.to_string e))
      in
      Obs.set_attr sp "op" (Jsonl.Str !op);
      Obs.observe (Obs.histogram (op_metric !op)) (Obs.monotonic () -. t0);
      Jsonl.to_string response)

let run engine ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
        output_string oc (handle_line engine line);
        output_char oc '\n';
        flush oc;
        loop ()
  in
  loop ();
  Engine.flush engine
