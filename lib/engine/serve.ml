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
     {"op":"snapshot",      "cursor":0, "limit":512}
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
   holds "results" in request order; its members are evaluated in
   parallel on the engine's pool.

   Robustness: [handle_line] never raises.  Expected failures (parse
   errors, bad requests, invalid parameters) and unexpected handler
   exceptions alike produce {"ok":false,"error":...} — echoing the
   request's "id" when one was parsed — and the loop keeps going.  One
   bad request must not kill the server.

   Observability: each line runs in a [serve.request] span carrying a
   process-wide request counter and the parsed op name, and its wall time
   lands in a per-op [serve.op.<op>] histogram ("invalid" when no op was
   parsed).  The [metrics] op — and a "metrics" field on [stats] —
   returns the full {!Obs.snapshot_json}. *)

open Psph_obs
open Psph_topology

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

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
type want = Betti | Connectivity | Both

(* which solver tier the request asks for ("solver" field, default auto) *)
let mode_of_request req =
  match Option.bind (Jsonl.member "solver" req) Jsonl.to_string_opt with
  | None | Some "auto" -> Engine.Auto
  | Some "symbolic" -> Engine.Symbolic_only
  | Some "numeric" -> Engine.Numeric_only
  | Some "check" -> Engine.Check
  | Some s -> bad "unknown solver mode %S (auto|symbolic|numeric|check)" s

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

let model_spec_of req =
  let model, m =
    match Option.bind (Jsonl.member "model" req) Jsonl.to_string_opt with
    | None -> bad "missing string field \"model\""
    | Some name -> (
        match Pseudosphere.Model_complex.find name with
        | Some m -> (name, m)
        | None ->
            bad "unknown model %S (available: %s)" name
              (String.concat ", " (Pseudosphere.Model_complex.names ())))
  in
  let d = Pseudosphere.Model_complex.default_spec in
  Engine.Model
    {
      model;
      params =
        {
          Pseudosphere.Model_complex.n = int_field req "n";
          f = int_field ~default:d.Pseudosphere.Model_complex.f req "f";
          k = int_field ~default:d.k req "k";
          p = int_field ~default:d.p req "p";
          r = int_field ~default:d.r req "r";
          ext = ext_of req m;
        };
    }

let spec_of_request req =
  match Option.bind (Jsonl.member "op" req) Jsonl.to_string_opt with
  | None -> bad "missing \"op\""
  | Some (("betti" | "connectivity") as op) -> (
      match Option.bind (Jsonl.member "facets" req) Jsonl.to_list_opt with
      | Some facets ->
          let simplexes =
            List.map
              (fun f ->
                match Jsonl.to_string_opt f with
                | None -> bad "facets entries must be strings"
                | Some s -> (
                    try Complex_io.simplex_of_string s
                    with Failure m -> bad "bad facet: %s" m))
              facets
          in
          ( Engine.Explicit (Complex.of_facets simplexes),
            if op = "betti" then Betti else Connectivity )
      | None when op = "connectivity" && Jsonl.member "model" req <> None ->
          (* the solver-routed symbolic forms: a registered model ... *)
          (model_spec_of req, Connectivity)
      | None when op = "connectivity" && Jsonl.member "values" req <> None ->
          (* ... or a uniform pseudosphere *)
          ( Engine.Psph { n = int_field req "n"; values = int_field req "values" },
            Connectivity )
      | None ->
          if op = "connectivity" then
            bad "connectivity needs \"facets\", \"model\", or \"n\"+\"values\""
          else bad "%s needs a \"facets\" array" op)
  | Some "psph" ->
      ( Engine.Psph { n = int_field req "n"; values = int_field req "values" },
        Both )
  | Some "model-complex" -> (model_spec_of req, Both)
  | Some op -> bad "unknown op %S" op

(* want=Connectivity goes through the tiered solver; Betti needs the
   numeric tier, so those wants only honour mode=check *)
let eval_request engine (spec, want) mode =
  match want with
  | Connectivity -> Engine.eval_conn ~mode engine spec
  | Betti | Both -> Engine.eval ~mode engine spec

let result_fields want (r : Engine.result) =
  [ ("ok", Jsonl.Bool true); ("key", Jsonl.Str (Key.to_hex r.key)) ]
  @ (match want with
    | Betti -> [ ("betti", Jsonl.int_array r.answer.betti) ]
    | Connectivity -> [ ("connectivity", Jsonl.int r.answer.connectivity) ]
    | Both ->
        [
          ("betti", Jsonl.int_array r.answer.betti);
          ("connectivity", Jsonl.int r.answer.connectivity);
        ])
  @ [
      ("cached", Jsonl.Bool r.cached);
      ("solver", Jsonl.Obj (Engine.provenance_fields r.solver));
    ]

let with_id req fields =
  match Jsonl.member "id" req with
  | Some id -> ("id", id) :: fields
  | None -> fields

let error_response ?req msg =
  let fields = [ ("ok", Jsonl.Bool false); ("error", Jsonl.Str msg) ] in
  Jsonl.Obj (match req with Some r -> with_id r fields | None -> fields)

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

(* the replication tier's wire ops (docs/NET.md "Replication &
   rebalance"): [snapshot] pages the memo cache out in store-line form
   for a warming peer, [populate] loads finished answers in.  Paging
   sorts by store line so a cursor stays meaningful across requests on
   a stable cache; a churning cache costs the warming peer some
   entries, never correctness (content addressing — see Engine.warm). *)
let snapshot_response engine req =
  let cursor = max 0 (int_field ~default:0 req "cursor") in
  let limit = min 4096 (max 1 (int_field ~default:512 req "limit")) in
  let lines =
    List.sort compare
      (List.map
         (fun (k, e) -> Store.entry_to_line k e)
         (Engine.snapshot engine))
  in
  let total = List.length lines in
  let page = List.filteri (fun i _ -> i >= cursor && i < cursor + limit) lines in
  let next = min total (cursor + limit) in
  Jsonl.Obj
    (with_id req
       [
         ("ok", Jsonl.Bool true);
         ("total", Jsonl.int total);
         ("cursor", Jsonl.int cursor);
         ("next", Jsonl.int next);
         ("done", Jsonl.Bool (next >= total));
         ("entries", Jsonl.Arr (List.map (fun l -> Jsonl.Str l) page));
       ])

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
  | Some "snapshot" -> snapshot_response engine req
  | Some "populate" -> populate_response engine req
  | Some "batch" ->
      let requests =
        match Option.bind (Jsonl.member "requests" req) Jsonl.to_list_opt with
        | Some rs -> rs
        | None -> bad "batch needs a \"requests\" array"
      in
      (* parse everything first so one bad member fails its slot, not the
         whole batch; then evaluate the good ones in parallel.  Evaluation
         errors (invalid parameters, a failed solver check) also fail only
         their slot, rendered exactly as the top-level error would be —
         the router splices batch members verbatim, so a member response
         must be byte-identical to its top-level counterpart. *)
      let parsed =
        List.map
          (fun r ->
            try Ok (r, spec_of_request r, mode_of_request r)
            with Bad_request m -> Error (r, m))
          requests
      in
      let thunks =
        List.filter_map
          (function
            | Ok (_, sw, mode) ->
                Some
                  (fun () ->
                    try Ok (eval_request engine sw mode)
                    with Invalid_argument m | Failure m -> Error m)
            | Error _ -> None)
          parsed
      in
      let results = Engine.run_all engine thunks in
      let rec zip parsed results =
        match (parsed, results) with
        | [], _ -> []
        | Error (r, m) :: tl, results -> error_response ~req:r m :: zip tl results
        | Ok (r, (_, want), _) :: tl, res :: results ->
            (match res with
            | Ok res -> Jsonl.Obj (with_id r (result_fields want res))
            | Error m -> error_response ~req:r m)
            :: zip tl results
        | Ok _ :: _, [] -> assert false
      in
      Jsonl.Obj
        [ ("ok", Jsonl.Bool true); ("results", Jsonl.Arr (zip parsed results)) ]
  | _ ->
      let sw = spec_of_request req in
      let mode = mode_of_request req in
      Jsonl.Obj
        (with_id req (result_fields (snd sw) (eval_request engine sw mode)))

(* process-wide request counter; attached to every [serve.request] span so
   a trace's requests stay distinguishable even without client "id"s *)
let request_ids = Atomic.make 0

(* eager, like the engine's handles: worker domains serve requests
   concurrently, and a lazy handle forced twice at once raises *)
let requests_c = Obs.counter "serve.requests"

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
            | Bad_request m -> error_response ~req m
            | Invalid_argument m | Failure m -> error_response ~req m
            | e ->
                (* a handler bug or resource blow-up must answer this
                   request, not kill the serve loop *)
                error_response ~req ("internal error: " ^ Printexc.to_string e))
      in
      Obs.set_attr sp "op" (Jsonl.Str !op);
      Obs.observe (Obs.histogram ("serve.op." ^ !op)) (Obs.monotonic () -. t0);
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
