(* Consistent-hash request routing with an R-replicated memo tier.

   Placement lives in {!Ring}: a request's shard key walks the ring and
   the distinct backends met are its preference order, so the first is
   its primary and the next R-1 are its replicas (the "owner set").
   Routing tries the preference order live-first — which means a dead
   primary's reads land exactly on the replicas that populate hints
   have been warming.

   Membership is the backend list the router was created with: the
   backend array and the ring never change, so only liveness moves. *)

open Psph_obs
module Engine = Psph_engine.Engine
module Serve = Psph_engine.Serve

type backend = {
  baddr : Addr.t;
  client : Client.t;
  health : Client.t;  (** separate connection so probes never queue behind requests *)
  mutable alive : bool;
}

type metrics = {
  requests : Obs.counter;
  forwarded : Obs.counter;
  failover : Obs.counter;
  no_backend : Obs.counter;
  backends_up : Obs.gauge;
  request_s : Obs.histogram;
  span_name : string;
  prefix : string;
}

type t = {
  bks : backend array;
  ring : Ring.t;
  replication : int;
  owners : int;  (** [min replication (Array.length bks)]: the owner-set size *)
  rep : Replica.t;
  rr : int Atomic.t;  (** rotation for keyless requests *)
  check_period_s : float;
  mutable health_thread : Thread.t option;
  stopping : bool Atomic.t;
  m : metrics;
}

(* request links are binary at depth 1: hot ops cross as codec bytes and
   come back as the backend's own JSON bytes (Client rebuilds them) *)
let mk_backend ~metrics ~timeout_ms ~retries baddr =
  {
    baddr;
    client =
      Client.create ~metrics:(metrics ^ ".client") ~timeout_ms ~retries
        ~codec:`Binary baddr;
    health =
      Client.create ~metrics:(metrics ^ ".health")
        ~timeout_ms:(min timeout_ms 1000) ~retries:0 baddr;
    alive = true;
  }

let create ?(metrics = "net.router") ?(replication = 1) ?(timeout_ms = 5000)
    ?(retries = 1) ?(check_period_ms = 1000) addrs =
  if addrs = [] then invalid_arg "Router.create: no backends";
  let ring = Ring.make (List.map Addr.to_string addrs) in
  let bks =
    Array.of_list (List.map (mk_backend ~metrics ~timeout_ms ~retries) addrs)
  in
  let replication = max 1 replication in
  let m =
    {
      requests = Obs.counter (metrics ^ ".requests");
      forwarded = Obs.counter (metrics ^ ".forwarded");
      failover = Obs.counter (metrics ^ ".failover");
      no_backend = Obs.counter (metrics ^ ".no_backend");
      backends_up = Obs.gauge (metrics ^ ".backends_up");
      request_s = Obs.histogram (metrics ^ ".request_s");
      span_name = metrics ^ ".request";
      prefix = metrics;
    }
  in
  Obs.gauge_set m.backends_up (float_of_int (Array.length bks));
  {
    bks;
    ring;
    replication;
    owners = min replication (Array.length bks);
    rep = Replica.create ~metrics:(metrics ^ ".replica") ();
    rr = Atomic.make 0;
    check_period_s = float_of_int check_period_ms /. 1000.;
    health_thread = None;
    stopping = Atomic.make false;
    m;
  }

(* ------------------------------------------------------------------ *)
(* shard keys and placement                                            *)
(* ------------------------------------------------------------------ *)

(* the engine's own canonical string of the request's spec: psph by
   parameters, models by the registered model's normalized encoding,
   explicit facets by their content address — so the router agrees with
   the backend caches about which requests are "the same".  The solver
   mode and the want do not move placement; a request the backend will
   refuse has no affinity. *)
let key_of_parsed = function
  | Error _ -> None
  | Ok (_, query, _) -> (
      match Serve.spec_of_query query with
      | Engine.Psph { n; values } -> Some (Printf.sprintf "psph:%d:%d" n values)
      | Engine.Model { model; params } ->
          Some (Pseudosphere.Model_complex.(encode (get model) params))
      | Engine.Explicit c -> Some ("key:" ^ Psph_engine.Key.(to_hex (of_complex c)))
      | exception _ -> None)

(* a request line parsed once: everything routing reads *)
type req = { obj : Jsonl.t option; fwd : Client.prepared; key : string option }

let req_of line obj =
  let parsed = match obj with Some o -> Serve.parse o | None -> Error "not JSON" in
  { obj; fwd = Client.prepare line obj parsed; key = key_of_parsed parsed }

let shard_key line = (req_of line (Jsonl.of_string_opt line)).key

let preference_in t key =
  match key with
  | Some key -> Ring.order t.ring key
  | None ->
      let nb = Array.length t.bks in
      let c = Atomic.fetch_and_add t.rr 1 in
      List.init nb (fun i -> (c + i) mod nb)

let preference t line = preference_in t (shard_key line)

let backends t = Array.to_list (Array.map (fun b -> (b.baddr, b.alive)) t.bks)

(* ------------------------------------------------------------------ *)
(* routing                                                             *)
(* ------------------------------------------------------------------ *)

let refresh_up_gauge t =
  let up = Array.fold_left (fun n b -> if b.alive then n + 1 else n) 0 t.bks in
  Obs.gauge_set t.m.backends_up (float_of_int up)

let mark t i alive =
  let b = t.bks.(i) in
  if b.alive <> alive then begin
    b.alive <- alive;
    Obs.event
      (t.m.prefix ^ if alive then ".backend_up" else ".backend_down")
      ~attrs:[ ("backend", Jsonl.Str (Addr.to_string b.baddr)) ];
    refresh_up_gauge t
  end

let error_line ?extra req msg = Jsonl.to_string (Serve.error_response ?extra ?req msg)

let prober_running t = t.health_thread <> None && not (Atomic.get t.stopping)

(* all backends refused: while the prober runs this is a transient
   state, so the answer carries backpressure — when to come back —
   instead of just a verdict (docs/NET.md "Error contract") *)
let degraded t req =
  let extra =
    if prober_running t then
      [
        ( "retry_after_ms",
          Jsonl.int
            (max 1 (int_of_float (Float.ceil (t.check_period_s *. 1000.)))) );
      ]
    else []
  in
  error_line ~extra req "no backend"

(* rank of backend [i] in the preference order: 0 = primary, 1..R-1 =
   replicas, beyond = off the owner set *)
let rank prefs i =
  let rec go k = function
    | [] -> max_int
    | x :: tl -> if x = i then k else go (k + 1) tl
  in
  go 0 prefs

(* a miss answered by one owner is pushed to the others, so hot keys
   converge to R warm copies without any replica recomputing.  [reply]
   is the backend's answer, parsed (at most once) on demand. *)
let populate_hint t prefs served reply =
  if t.owners > 1 then
    match Lazy.force reply with
    | Some (Serve.Result { cached = false; _ } as r) -> (
        match Replica.entry_of_response r with
        | None -> ()
        | Some entry ->
            let owners = List.filteri (fun k _ -> k < t.owners) prefs in
            let line = Replica.populate_line [ entry ] in
            List.iter
              (fun b ->
                if b <> served && t.bks.(b).alive then
                  ignore
                    (Replica.async t.rep (fun () ->
                         match Client.request t.bks.(b).client line with
                         | Ok _ -> ()
                         | Error _ -> Replica.populate_failed t.rep)))
              owners)
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* the walk                                                            *)
(* ------------------------------------------------------------------ *)

(* A forwarded request walks its preference order: each step tries the
   best untried backend, live first and a dead one as the last resort
   (it may have revived since the prober last looked).  A retryable
   failure marks the backend down and walks on; the untried list only
   shrinks, so the walk ends in the degraded answer at worst. *)
let walk t sp req =
  let prefs = preference_in t req.key in
  let rec go tries untried =
    match (List.find_opt (fun b -> t.bks.(b).alive) untried, untried) with
    | None, [] ->
        Obs.incr t.m.no_backend;
        Obs.set_attr sp "degraded" (Jsonl.Bool true);
        degraded t req.obj
    | (Some b, _ | None, b :: _) -> (
        if tries = 1 then Obs.incr t.m.failover;
        match Client.request_prepared t.bks.(b).client req.fwd with
        | Ok resp ->
            mark t b true;
            Obs.incr t.m.forwarded;
            Obs.set_attr sp "backend" (Jsonl.Str (Addr.to_string t.bks.(b).baddr));
            if req.key <> None then begin
              let reply = lazy (Serve.reply_of_json resp) in
              let r = rank prefs b in
              if r > 0 && r < t.owners then begin
                Replica.fallback_read t.rep
                  ~cached:
                    (match Lazy.force reply with
                    | Some (Serve.Result { cached; _ }) -> cached
                    | _ -> false);
                Obs.set_attr sp "fallback" (Jsonl.Bool true)
              end;
              populate_hint t prefs b reply
            end;
            resp
        | Error e when Client.is_retryable e ->
            (* transport failure: the backend (not the request) is the
               problem — mark it down and walk on *)
            mark t b false;
            go (tries + 1) (List.filter (fun x -> x <> b) untried)
        | Error e ->
            (* fatal Protocol errors are request-specific (e.g. a
               response over Frame.max_frame): every backend
               would fail it identically, so answer with the error
               instead of walking the ring marking healthy backends
               dead *)
            let msg = Client.error_message e in
            Obs.set_attr sp "error" (Jsonl.Str msg);
            error_line req.obj msg)
  in
  go 0 prefs

(* ------------------------------------------------------------------ *)
(* admin ops                                                           *)
(* ------------------------------------------------------------------ *)

let cluster_response t req =
  Jsonl.to_string
    (Jsonl.Obj
       (Serve.with_id req
          [
            ("ok", Jsonl.Bool true);
            ("replication", Jsonl.int t.replication);
            ( "backends",
              Jsonl.Arr
                (Array.to_list
                   (Array.map
                      (fun b ->
                        Jsonl.Obj
                          [
                            ("addr", Jsonl.Str (Addr.to_string b.baddr));
                            ("alive", Jsonl.Bool b.alive);
                          ])
                      t.bks)) );
          ]))

(* the line is parsed here once; admin ops and placement both read that
   parse *)
let route t line =
  Obs.incr t.m.requests;
  Obs.with_span t.m.span_name (fun sp ->
      Obs.time t.m.request_s (fun () ->
          let obj = Jsonl.of_string_opt line in
          let op =
            Option.bind (Option.bind obj (Jsonl.member "op")) Jsonl.to_string_opt
          in
          match (op, obj) with
          | Some "cluster", Some o -> cluster_response t o
          | _ -> walk t sp (req_of line obj)))

(* ------------------------------------------------------------------ *)
(* health checks                                                       *)
(* ------------------------------------------------------------------ *)

let probe = {|{"op":"models"}|}

let check_once t =
  Array.iteri
    (fun i b ->
      match Client.request b.health probe with
      | Ok _ -> mark t i true
      | Error _ -> mark t i false)
    t.bks

let rec health_loop t =
  if not (Atomic.get t.stopping) then begin
    check_once t;
    (* sleep in small slices so [stop] never waits a full period *)
    let slices = int_of_float (Float.ceil (t.check_period_s /. 0.05)) in
    let rec nap i =
      if i > 0 && not (Atomic.get t.stopping) then begin
        Thread.delay (Float.min 0.05 t.check_period_s);
        nap (i - 1)
      end
    in
    nap (max 1 slices);
    health_loop t
  end

let start_health_checks t =
  if t.health_thread = None then
    t.health_thread <- Some (Thread.create (fun () -> health_loop t) ())

let stop t =
  Atomic.set t.stopping true;
  Option.iter Thread.join t.health_thread;
  t.health_thread <- None;
  Replica.stop t.rep;
  Array.iter
    (fun b ->
      Client.close b.client;
      Client.close b.health)
    t.bks
