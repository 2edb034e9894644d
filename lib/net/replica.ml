(* Replication mechanics for the sharded memo tier: the async populate
   queue and the store-entry <-> wire translations.  Placement itself
   lives in {!Ring}; the policy (who owns what, when to hint) lives in
   {!Router} — this module is the machinery both lean on.

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
}

let make_metrics prefix =
  {
    populate = Obs.counter (prefix ^ ".populate");
    populate_drop = Obs.counter (prefix ^ ".populate_drop");
    populate_fail = Obs.counter (prefix ^ ".populate_fail");
    fallback_read = Obs.counter (prefix ^ ".fallback_read");
    fallback_hit = Obs.counter (prefix ^ ".fallback_hit");
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
