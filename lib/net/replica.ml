(* Replication mechanics for the sharded memo tier: the async populate
   queue, the store-entry <-> wire translations, and snapshot-stream
   cache warming.  Placement itself lives in {!Ring}; the policy (who
   owns what, when to hint) lives in {!Router} — this module is the
   machinery both lean on.

   The populate worker is deliberately lossy: hints are an optimization
   (a dropped hint costs one recompute on some future failover), so a
   full queue drops and counts instead of slowing the request path. *)

open Psph_obs
open Psph_engine

type metrics = {
  populate : Obs.counter;
  populate_drop : Obs.counter;
  populate_fail : Obs.counter;
  fallback_read : Obs.counter;
  fallback_hit : Obs.counter;
  warm_entries : Obs.counter;
  warm_s : Obs.histogram;
}

let make_metrics prefix =
  {
    populate = Obs.counter (prefix ^ ".populate");
    populate_drop = Obs.counter (prefix ^ ".populate_drop");
    populate_fail = Obs.counter (prefix ^ ".populate_fail");
    fallback_read = Obs.counter (prefix ^ ".fallback_read");
    fallback_hit = Obs.counter (prefix ^ ".fallback_hit");
    warm_entries = Obs.counter (prefix ^ ".warm_entries");
    warm_s = Obs.histogram (prefix ^ ".warm_s");
  }

type t = {
  queue : (unit -> unit) Queue.t;
  queue_cap : int;
  lock : Mutex.t;
  cond : Condition.t;
  mutable worker : Thread.t option;
  mutable stopping : bool;
  m : metrics;
}

let create ?(metrics = "net.replica") ?(queue_cap = 1024) () =
  {
    queue = Queue.create ();
    queue_cap = max 1 queue_cap;
    lock = Mutex.create ();
    cond = Condition.create ();
    worker = None;
    stopping = false;
    m = make_metrics metrics;
  }

let worker_loop t =
  let rec go () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.cond t.lock
    done;
    let job = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
    let stop = t.stopping in
    Mutex.unlock t.lock;
    match job with
    | Some job ->
        (try job () with _ -> Obs.incr t.m.populate_fail);
        go ()
    | None -> if not stop then go ()
  in
  go ()

let start t =
  Mutex.lock t.lock;
  if t.worker = None && not t.stopping then
    t.worker <- Some (Thread.create worker_loop t);
  Mutex.unlock t.lock

let stop t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Queue.clear t.queue;
  Condition.broadcast t.cond;
  let w = t.worker in
  t.worker <- None;
  Mutex.unlock t.lock;
  Option.iter Thread.join w

let async t job =
  start t;
  Mutex.lock t.lock;
  let accepted = (not t.stopping) && Queue.length t.queue < t.queue_cap in
  if accepted then begin
    Queue.add job t.queue;
    Condition.signal t.cond
  end;
  Mutex.unlock t.lock;
  if accepted then Obs.incr t.m.populate else Obs.incr t.m.populate_drop;
  accepted

let fallback_read t ~cached =
  Obs.incr t.m.fallback_read;
  if cached then Obs.incr t.m.fallback_hit

let populate_failed t = Obs.incr t.m.populate_fail

(* ------------------------------------------------------------------ *)
(* wire translations                                                   *)
(* ------------------------------------------------------------------ *)

let entry_of_response = function
  | Psph_engine.Serve.Result { key; betti = Some betti; connectivity; _ } ->
      Option.map
        (fun key ->
          ( key,
            {
              Store.betti;
              connectivity =
                (match connectivity with
                | Some c -> c
                | None -> Psph_topology.Homology.connectivity_of_betti betti);
            } ))
        (Key.of_hex_opt key)
  | _ -> None

let populate_line entries =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("op", Jsonl.Str "populate");
         ( "entries",
           Jsonl.Arr
             (List.map
                (fun (key, e) -> Jsonl.Str (Store.entry_to_line key e))
                entries) );
       ])

(* ------------------------------------------------------------------ *)
(* snapshot streaming                                                  *)
(* ------------------------------------------------------------------ *)

let snapshot_line ~cursor ~limit =
  Printf.sprintf {|{"op":"snapshot","cursor":%d,"limit":%d}|} cursor limit

let fetch_entries ?(chunk = 512) client =
  let chunk = max 1 chunk in
  let rec go cursor acc =
    match Client.request client (snapshot_line ~cursor ~limit:chunk) with
    | Error e -> Error (Client.error_message e)
    | Ok resp -> (
        match Jsonl.of_string_opt resp with
        | Some (Jsonl.Obj _ as o)
          when Jsonl.member "ok" o = Some (Jsonl.Bool true) -> (
            let entries =
              match
                Option.bind (Jsonl.member "entries" o) Jsonl.to_list_opt
              with
              | None -> []
              | Some lines ->
                  List.filter_map
                    (fun l ->
                      Option.bind (Jsonl.to_string_opt l) Store.entry_of_line)
                    lines
            in
            let acc = List.rev_append entries acc in
            let finished =
              Jsonl.member "done" o = Some (Jsonl.Bool true)
              || entries = []
            in
            match
              Option.bind (Jsonl.member "next" o) Jsonl.to_int_opt
            with
            | Some next when (not finished) && next > cursor -> go next acc
            | _ -> Ok (List.rev acc))
        | Some (Jsonl.Obj _ as o) ->
            let msg =
              match
                Option.bind (Jsonl.member "error" o) Jsonl.to_string_opt
              with
              | Some m -> m
              | None -> "snapshot refused"
            in
            Error msg
        | _ -> Error "unparseable snapshot response")
  in
  go 0 []

let warm_from ?(metrics = "net.replica") ?chunk ?(timeout_ms = 5000)
    ?(retries = 3) engine peer =
  let m = make_metrics metrics in
  let client = Client.create ~metrics:(metrics ^ ".warm") ~timeout_ms ~retries peer in
  let t0 = Obs.monotonic () in
  let result =
    match fetch_entries ?chunk client with
    | Error _ as e -> e
    | Ok entries ->
        let loaded = Engine.warm engine entries in
        Obs.incr ~by:loaded m.warm_entries;
        Ok loaded
  in
  Client.close client;
  Obs.observe m.warm_s (Obs.monotonic () -. t0);
  result
