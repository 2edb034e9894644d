(* In-process replays of a workload's requests, one span per layer
   around calls into that layer's public functions (spans go to the Obs
   memory sink; see Spans for the self-time arithmetic).

   Each request is replayed twice: once whole, through the real handler
   the server runs ([handler]: Codec.handle or Serve.handle_line), and
   once stage by stage under a [stages] span whose children are the
   layer calls the handler is made of.  The handler's time minus the
   time its stages cover is attr.unattributed_us: how far the outside
   replay has drifted from the program.  Frame decode/encode sit beside
   [stages] under [replay], since the handler never sees frames. *)

open Perfbench
open Psph_topology
open Pseudosphere
module Engine = Psph_engine.Engine
module Serve = Psph_engine.Serve
module Key = Psph_engine.Key
module Codec = Psph_net.Codec
module Frame = Psph_net.Frame
module Jsonl = Psph_obs.Jsonl
module Obs = Psph_obs.Obs

let span name f = Obs.with_span name (fun _ -> f ())

(* exact counts gathered along the replay *)
type counts = {
  mutable requests : int;
  mutable builds : int;  (** complexes built on the served path *)
  mutable simplices : int;  (** their total size *)
  mutable columns : int;  (** boundary columns eliminated *)
}

let counts () = { requests = 0; builds = 0; simplices = 0; columns = 0 }

(* one reader for the whole replay, as on a connection *)
let reader = Frame.reader ()

let frame_decode frame =
  span "net.frame.decode" (fun () ->
      Frame.feed_string reader frame;
      Option.get (Frame.next reader))

let decode_reply payload =
  match Codec.decode_reply payload with
  | Ok r -> r
  | Error m -> failwith ("replay: undecodable reply: " ^ m)

(* the numeric miss path of Engine.eval, stage by stage *)
let miss_stages cnt spec =
  let c = span "core.build" (fun () -> Engine.build spec) in
  cnt.builds <- cnt.builds + 1;
  cnt.simplices <- cnt.simplices + Complex.num_simplices c;
  ignore (span "engine.key" (fun () -> Key.of_complex c));
  let core, _ = span "topology.collapse" (fun () -> Collapse.reduce c) in
  span "topology.eliminate" (fun () ->
      let r, jobs = Homology.rank_jobs core in
      List.iter (fun (d, job) -> r.(d) <- job ()) jobs);
  for d = 1 to Complex.dim core do
    cnt.columns <- cnt.columns + Complex.count_of_dim core d
  done

(* a binary request (hot_binary, cold_numeric).  [`Hit]: the engine is
   warm for the item, so the path is decode -> (facets: parse) ->
   Engine.eval -> encode; [`Miss]: the engine misses, so the engine
   stage is build -> key -> collapse -> eliminate. *)
let binary ~path cnt eng (it : Tables.item) =
  cnt.requests <- cnt.requests + 1;
  let payload =
    Codec.encode_request { Codec.id = cnt.requests; want = it.want; query = it.query }
  in
  let frame = Frame.encode payload in
  let out =
    span "handler" (fun () -> Codec.handle ~json:(Serve.handle_line eng) eng payload)
  in
  let reply = decode_reply out in
  span "replay" (fun () ->
      let p = frame_decode frame in
      span "stages" (fun () ->
          let req =
            span "net.codec.decode" (fun () ->
                match Codec.decode_request p with
                | Ok r -> r
                | Error m -> failwith m)
          in
          (match path with
          | `Hit -> (
              match req.query with
              | Codec.Facets _ ->
                  let spec = span "core.build" (fun () -> Tables.spec_of_query req.query) in
                  (match spec with
                  | Engine.Explicit c ->
                      cnt.builds <- cnt.builds + 1;
                      cnt.simplices <- cnt.simplices + Complex.num_simplices c
                  | _ -> ());
                  ignore (span "engine.hit" (fun () -> Engine.eval eng spec))
              | _ -> ignore (span "engine.hit" (fun () -> Engine.eval eng it.spec)))
          | `Miss -> miss_stages cnt it.spec);
          ignore (span "net.codec.encode" (fun () -> Codec.encode_reply reply)));
      ignore (span "net.frame.encode" (fun () -> Frame.encode out)));
  (* keying, timed on its own: on the hit path it sits inside engine.hit
     (explicit complexes are keyed on every query) *)
  match (path, it.spec) with
  | `Hit, Engine.Explicit c -> ignore (span "engine.key" (fun () -> Key.of_complex c))
  | _ -> ()

(* a JSON-lines request (routed_json), as one backend serves it *)
let json cnt eng (it : Tables.item) =
  cnt.requests <- cnt.requests + 1;
  let frame = Frame.encode it.line in
  let out = span "handler" (fun () -> Serve.handle_line eng it.line) in
  (* the engine call alone, for engine.serve.json_us *)
  ignore
    (span "engine.eval_conn" (fun () ->
         match it.want with
         | Codec.Connectivity -> Engine.eval_conn eng it.spec
         | Codec.Both | Codec.Betti -> Engine.eval eng it.spec));
  let reply =
    match Codec.reply_of_json out with
    | Some r -> r
    | None -> failwith ("replay: bad response " ^ out)
  in
  span "replay" (fun () ->
      let line = frame_decode frame in
      span "stages" (fun () ->
          (* the request object; the spec extraction that follows it in
             Serve is left to attr.unattributed_us *)
          ignore (span "engine.serve.parse" (fun () -> Jsonl.of_string line));
          (match it.want with
          | Codec.Connectivity ->
              ignore
                (span "core.symbolic" (fun () ->
                     match it.query with
                     | Codec.Psph { n; values } -> Solver.symbolic_psph ~n ~values
                     | Codec.Model { model; spec } ->
                         Solver.symbolic_model (Model_complex.get model) spec
                     | Codec.Facets _ -> None))
          | Codec.Both | Codec.Betti ->
              ignore (span "engine.hit" (fun () -> Engine.eval eng it.spec)));
          ignore (span "engine.serve.render" (fun () -> Codec.json_of_reply ~id:None reply)));
      ignore (span "net.frame.encode" (fun () -> Frame.encode out)))

(* dispatch-to-start delay of the engine's worker pool, one job at a
   time: the hop every served request takes from a reactor loop *)
let pool_wait eng =
  let m = Mutex.create () and c = Condition.create () in
  let started = ref nan and finished = ref false in
  let t0 = Obs.monotonic () in
  Engine.dispatch eng (fun () ->
      started := Obs.monotonic ();
      Mutex.lock m;
      finished := true;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while not !finished do
    Condition.wait c m
  done;
  Mutex.unlock m;
  !started -. t0
